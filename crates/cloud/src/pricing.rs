//! Money and the usage-time charging model.
//!
//! The paper charges "by usage time, following the charging model of
//! leading commercial cloud providers such as Amazon EC2 and S3": VM rental
//! per instance-hour and NFS storage per byte-hour. Dollar amounts are kept
//! as `f64` internally (prices like $1.11e-4/GB·h make integer cents
//! unusable) and formatted through [`Money`] for reporting.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

use serde::{Deserialize, Serialize};

/// A dollar amount.
///
/// Thin wrapper over `f64` dollars providing arithmetic, ordering helpers
/// and consistent display; constructed via [`Money::dollars`].
///
/// ```
/// use cloudmedia_cloud::pricing::Money;
///
/// let vm_hour = Money::dollars(0.45);
/// let two_hours = vm_hour * 2.0;
/// assert_eq!((vm_hour + two_hours).as_dollars(), 1.35);
/// assert_eq!(vm_hour.saturating_sub(two_hours), Money::ZERO);
/// assert_eq!(two_hours.to_string(), "$0.90");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Money(f64);

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(0.0);

    /// Creates an amount from dollars.
    pub fn dollars(amount: f64) -> Self {
        Self(amount)
    }

    /// The amount in dollars.
    pub fn as_dollars(&self) -> f64 {
        self.0
    }

    /// Saturating subtraction: never goes below zero.
    pub fn saturating_sub(self, other: Money) -> Money {
        Money((self.0 - other.0).max(0.0))
    }

    /// The larger of two amounts.
    pub fn max(self, other: Money) -> Money {
        Money(self.0.max(other.0))
    }

    /// The smaller of two amounts.
    pub fn min(self, other: Money) -> Money {
        Money(self.0.min(other.0))
    }
}

impl Add for Money {
    type Output = Money;

    fn add(self, rhs: Money) -> Money {
        Money(self.0 + rhs.0)
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        self.0 += rhs.0;
    }
}

impl Sub for Money {
    type Output = Money;

    fn sub(self, rhs: Money) -> Money {
        Money(self.0 - rhs.0)
    }
}

impl Mul<f64> for Money {
    type Output = Money;

    fn mul(self, rhs: f64) -> Money {
        Money(self.0 * rhs)
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        Money(iter.map(|m| m.0).sum())
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() < 0.01 && self.0 != 0.0 {
            // Sub-cent prices (e.g. storage per GB-hour) keep precision.
            write!(f, "${:.6}", self.0)
        } else {
            write!(f, "${:.2}", self.0)
        }
    }
}

/// Per-unit-time prices for the two billable resources.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rate {
    /// Dollars charged per hour of usage of one unit.
    pub dollars_per_hour: f64,
}

impl Rate {
    /// Creates a rate from dollars per hour.
    pub fn per_hour(dollars: f64) -> Self {
        Self {
            dollars_per_hour: dollars,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves() {
        let a = Money::dollars(1.5);
        let b = Money::dollars(0.25);
        assert_eq!((a + b).as_dollars(), 1.75);
        assert_eq!((a - b).as_dollars(), 1.25);
        assert_eq!((a * 2.0).as_dollars(), 3.0);
        let total: Money = vec![a, b, b].into_iter().sum();
        assert_eq!(total.as_dollars(), 2.0);
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        let a = Money::dollars(1.0);
        let b = Money::dollars(2.0);
        assert_eq!(a.saturating_sub(b), Money::ZERO);
        assert_eq!(b.saturating_sub(a).as_dollars(), 1.0);
    }

    #[test]
    fn display_formats_cents_and_subcents() {
        assert_eq!(Money::dollars(48.0).to_string(), "$48.00");
        assert_eq!(Money::dollars(0.000111).to_string(), "$0.000111");
        assert_eq!(Money::ZERO.to_string(), "$0.00");
    }
}
