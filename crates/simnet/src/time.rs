//! Virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in abstract "ticks".
///
/// The unit is arbitrary; the default latency model charges 1 tick for a
/// local hand-off and 10 ticks for a remote hop, so tick counts read roughly
/// like microseconds on a fast LAN.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// The raw tick count.
    #[inline]
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating difference in ticks.
    #[inline]
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime(5);
        assert_eq!((t + 3).ticks(), 8);
        assert_eq!(SimTime(9) - SimTime(4), 5);
        assert_eq!(SimTime(4) - SimTime(9), 0, "saturating");
        assert_eq!(SimTime(9).since(SimTime(4)), 5);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::ZERO < SimTime(1));
        let mut t = SimTime::ZERO;
        t += 2;
        assert_eq!(t, SimTime(2));
    }
}
