//! Virtual machine lifecycle.
//!
//! The paper measures "around 25 seconds to turn on a VM, and even less
//! time to shut it down", with VMs launched and shut down in parallel so
//! provisioning latency stays at seconds. Instances here follow the
//! corresponding four-state lifecycle.

use serde::{Deserialize, Serialize};

/// Default boot latency, seconds (paper Sec. VI-C).
pub const DEFAULT_BOOT_SECONDS: f64 = 25.0;

/// Default shutdown latency, seconds ("even less time to shut it down").
pub const DEFAULT_SHUTDOWN_SECONDS: f64 = 10.0;

/// Lifecycle state of a VM instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VmState {
    /// Pre-deployed but powered off (the paper pre-deploys images in "off"
    /// state).
    Off,
    /// Booting; serves no traffic until `ready_at`.
    Booting {
        /// Absolute time the instance becomes `Running`.
        ready_at: f64,
    },
    /// Running and serving its full allocated bandwidth.
    Running {
        /// Absolute time the instance entered `Running`.
        since: f64,
    },
    /// Shutting down; already serving no traffic.
    ShuttingDown {
        /// Absolute time the instance becomes `Off`.
        off_at: f64,
    },
}

/// One VM instance inside a virtual cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmInstance {
    /// Identifier unique within the cluster.
    pub id: usize,
    /// Current lifecycle state.
    pub state: VmState,
}

impl VmInstance {
    /// Creates a powered-off instance.
    pub fn new(id: usize) -> Self {
        Self {
            id,
            state: VmState::Off,
        }
    }

    /// Advances lifecycle transitions up to time `now`.
    pub fn tick(&mut self, now: f64) {
        match self.state {
            VmState::Booting { ready_at } if now >= ready_at => {
                self.state = VmState::Running { since: ready_at };
            }
            VmState::ShuttingDown { off_at } if now >= off_at => {
                self.state = VmState::Off;
            }
            _ => {}
        }
    }

    /// Starts booting at `now`; no-op unless the instance is `Off`.
    pub fn launch(&mut self, now: f64, boot_seconds: f64) {
        if matches!(self.state, VmState::Off) {
            self.state = VmState::Booting {
                ready_at: now + boot_seconds,
            };
        }
    }

    /// Begins shutdown at `now`; no-op if already off or shutting down.
    /// A booting instance aborts its boot and powers down.
    pub fn shutdown(&mut self, now: f64, shutdown_seconds: f64) {
        match self.state {
            VmState::Running { .. } | VmState::Booting { .. } => {
                self.state = VmState::ShuttingDown {
                    off_at: now + shutdown_seconds,
                };
            }
            VmState::Off | VmState::ShuttingDown { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_takes_the_configured_latency() {
        let mut vm = VmInstance::new(0);
        vm.launch(100.0, DEFAULT_BOOT_SECONDS);
        vm.tick(100.0);
        assert_eq!(
            vm.state,
            VmState::Booting { ready_at: 125.0 },
            "not running immediately"
        );
        vm.tick(124.9);
        assert_eq!(
            vm.state,
            VmState::Booting { ready_at: 125.0 },
            "not running before 25 s elapse"
        );
        vm.tick(125.0);
        assert_eq!(vm.state, VmState::Running { since: 125.0 });
    }

    #[test]
    fn shutdown_transitions_to_off() {
        let mut vm = VmInstance::new(1);
        vm.launch(0.0, 25.0);
        vm.tick(25.0);
        vm.shutdown(30.0, DEFAULT_SHUTDOWN_SECONDS);
        assert_eq!(vm.state, VmState::ShuttingDown { off_at: 40.0 });
        vm.tick(40.0);
        assert_eq!(vm.state, VmState::Off);
    }

    #[test]
    fn launch_is_idempotent_while_not_off() {
        let mut vm = VmInstance::new(2);
        vm.launch(0.0, 25.0);
        let s = vm.state;
        vm.launch(5.0, 25.0);
        assert_eq!(vm.state, s, "second launch ignored");
    }

    #[test]
    fn booting_instance_can_be_aborted() {
        let mut vm = VmInstance::new(3);
        vm.launch(0.0, 25.0);
        vm.shutdown(10.0, 10.0);
        assert_eq!(vm.state, VmState::ShuttingDown { off_at: 20.0 });
        vm.tick(20.0);
        assert_eq!(vm.state, VmState::Off);
    }

    #[test]
    fn shutdown_when_off_is_noop() {
        let mut vm = VmInstance::new(4);
        vm.shutdown(0.0, 10.0);
        assert_eq!(vm.state, VmState::Off);
    }

    /// The scheduler bills every instance that is not `Off`.
    #[test]
    fn billable_from_launch() {
        let mut vm = VmInstance::new(5);
        assert_eq!(vm.state, VmState::Off);
        vm.launch(0.0, 25.0);
        assert_eq!(
            vm.state,
            VmState::Booting { ready_at: 25.0 },
            "billing starts at launch, not at ready"
        );
    }
}
