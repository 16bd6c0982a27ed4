//! Keys and key ranges.

use std::fmt;

/// Keys are unsigned 64-bit integers.
///
/// The paper's protocols are agnostic to the key domain; a fixed integer key
/// keeps protocol messages `Copy` and comparisons trivial. Map richer keys
/// onto `u64` by order-preserving encoding if needed.
pub type Key = u64;

/// A half-open key interval `[low, high)`, with `high = None` meaning +∞.
///
/// Every B-link / dB-tree node owns a range. The *inreach* test of the
/// link-algorithm guidelines is `range.contains(key)`; an action arriving at
/// a node whose range no longer covers its key must be routed through the
/// right link.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyRange {
    /// Inclusive lower bound.
    pub low: Key,
    /// Exclusive upper bound; `None` is +∞.
    pub high: Option<Key>,
}

impl KeyRange {
    /// The full key space `[0, +∞)`.
    pub const ALL: KeyRange = KeyRange { low: 0, high: None };

    /// `[low, high)`.
    pub fn new(low: Key, high: Option<Key>) -> Self {
        debug_assert!(high.is_none_or(|h| h >= low), "inverted range");
        KeyRange { low, high }
    }

    /// Does the range contain `key`?
    #[inline]
    pub fn contains(&self, key: Key) -> bool {
        key >= self.low && self.high.is_none_or(|h| key < h)
    }

    /// Is `key` at or beyond the upper bound (i.e. reachable only through the
    /// right link)?
    #[inline]
    pub fn is_right_of(&self, key: Key) -> bool {
        self.high.is_some_and(|h| key >= h)
    }

    /// Is `key` strictly below the lower bound?
    #[inline]
    pub fn is_left_of(&self, key: Key) -> bool {
        key < self.low
    }

    /// Split this range at `mid`, returning `([low, mid), [mid, high))`.
    ///
    /// `mid` must lie strictly inside the range.
    pub fn split_at(&self, mid: Key) -> (KeyRange, KeyRange) {
        debug_assert!(self.contains(mid) && mid > self.low, "mid inside range");
        (
            KeyRange::new(self.low, Some(mid)),
            KeyRange::new(mid, self.high),
        )
    }

    /// True if this range is empty (`low == high`).
    pub fn is_empty(&self) -> bool {
        self.high == Some(self.low)
    }
}

impl fmt::Debug for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.high {
            Some(h) => write!(f, "[{}, {})", self.low, h),
            None => write!(f, "[{}, +inf)", self.low),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_half_open() {
        let r = KeyRange::new(10, Some(20));
        assert!(!r.contains(9));
        assert!(r.contains(10));
        assert!(r.contains(19));
        assert!(!r.contains(20));
    }

    #[test]
    fn unbounded_high() {
        let r = KeyRange::new(5, None);
        assert!(r.contains(u64::MAX));
        assert!(!r.is_right_of(u64::MAX));
        assert!(r.is_left_of(4));
    }

    #[test]
    fn split() {
        let r = KeyRange::new(0, Some(100));
        let (l, rr) = r.split_at(50);
        assert_eq!(l, KeyRange::new(0, Some(50)));
        assert_eq!(rr, KeyRange::new(50, Some(100)));
        let (l2, r2) = KeyRange::ALL.split_at(7);
        assert_eq!(l2.high, Some(7));
        assert_eq!(r2.high, None);
    }

    #[test]
    fn right_of() {
        let r = KeyRange::new(0, Some(10));
        assert!(r.is_right_of(10));
        assert!(r.is_right_of(11));
        assert!(!r.is_right_of(9));
    }

    #[test]
    fn empty_range() {
        assert!(KeyRange::new(5, Some(5)).is_empty());
        assert!(!KeyRange::new(5, Some(6)).is_empty());
        assert!(!KeyRange::new(5, None).is_empty());
    }
}
