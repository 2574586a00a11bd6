//! Cube guards over variable bit-tracks.

use std::fmt;

/// A cube (partial assignment) over up to 64 boolean tracks: track `i` is
/// constrained to `(bits >> i) & 1` when `(mask >> i) & 1 = 1`, and
/// unconstrained otherwise.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Cube {
    /// Which tracks are constrained.
    pub mask: u64,
    /// The constrained tracks' required values (`bits & !mask = 0`).
    pub bits: u64,
}

impl Cube {
    /// The unconstrained cube (matches every assignment).
    pub const TOP: Cube = Cube { mask: 0, bits: 0 };

    /// A cube constraining a single track.
    pub fn single(track: usize, value: bool) -> Cube {
        let m = 1u64 << track;
        Cube {
            mask: m,
            bits: if value { m } else { 0 },
        }
    }

    /// Adds a single-track constraint (must not conflict — debug-asserted).
    pub fn and_single(self, track: usize, value: bool) -> Cube {
        let m = 1u64 << track;
        debug_assert!(
            self.mask & m == 0 || (self.bits & m != 0) == value,
            "conflicting constraint on track {track}"
        );
        Cube {
            mask: self.mask | m,
            bits: if value { self.bits | m } else { self.bits & !m },
        }
    }

    /// Does a full assignment satisfy the cube?
    #[inline]
    pub fn matches(self, assignment: u64) -> bool {
        assignment & self.mask == self.bits
    }

    /// Conjunction of two cubes; `None` when they conflict.
    pub fn intersect(self, other: Cube) -> Option<Cube> {
        let common = self.mask & other.mask;
        if self.bits & common != other.bits & common {
            return None;
        }
        Some(Cube {
            mask: self.mask | other.mask,
            bits: self.bits | other.bits,
        })
    }

    /// Removes track `t`, shifting higher tracks down by one — the guard
    /// transformation of existential projection.
    pub fn project(self, t: usize) -> Cube {
        let low = (1u64 << t) - 1;
        // Track 63 has no higher tracks: `>> 64` would overflow.
        let high = |x: u64| x.checked_shr(t as u32 + 1).unwrap_or(0) << t;
        Cube {
            mask: (self.mask & low) | high(self.mask),
            bits: (self.bits & low) | high(self.bits),
        }
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.mask == 0 {
            return write!(f, "⊤");
        }
        let mut first = true;
        for i in 0..64 {
            if self.mask >> i & 1 == 1 {
                if !first {
                    write!(f, "·")?;
                }
                first = false;
                if self.bits >> i & 1 == 1 {
                    write!(f, "t{i}")?;
                } else {
                    write!(f, "!t{i}")?;
                }
            }
        }
        Ok(())
    }
}

/// Iterates over all sub-assignments of `mask` (all `v` with
/// `v & !mask = 0`), including `0` — the minterm enumeration used by
/// determinization.
pub fn assignments_of(mask: u64) -> impl Iterator<Item = u64> {
    let mut next = Some(mask);
    std::iter::from_fn(move || {
        let v = next?;
        next = if v == 0 { None } else { Some((v - 1) & mask) };
        Some(v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_and_matches() {
        let c = Cube::single(3, true);
        assert!(c.matches(0b1000));
        assert!(c.matches(0b1010));
        assert!(!c.matches(0b0010));
        let c0 = Cube::single(1, false);
        assert!(c0.matches(0b1000));
        assert!(!c0.matches(0b0010));
        assert!(Cube::TOP.matches(0xffff));
    }

    #[test]
    fn intersection() {
        let a = Cube::single(0, true);
        let b = Cube::single(1, false);
        let c = a.intersect(b).unwrap();
        assert!(c.matches(0b01));
        assert!(!c.matches(0b11));
        assert!(!c.matches(0b00));
        assert!(a.intersect(Cube::single(0, false)).is_none());
        assert_eq!(a.intersect(a), Some(a));
    }

    #[test]
    fn projection_shifts() {
        // constrain tracks 0 and 2; project track 1 (unconstrained).
        let c = Cube::single(0, true).and_single(2, false);
        let p = c.project(1);
        assert_eq!(p.mask, 0b11);
        assert_eq!(p.bits, 0b01);
        // project a constrained track: the constraint disappears.
        let p0 = c.project(0);
        assert_eq!(p0.mask, 0b10);
        assert_eq!(p0.bits, 0b00);
        // project the top track.
        let p2 = c.project(2);
        assert_eq!(p2.mask, 0b01);
        assert_eq!(p2.bits, 0b01);
        // project track 63, the 64th variable: nothing above it shifts.
        let top = Cube::single(62, true).and_single(63, true);
        let p63 = top.project(63);
        assert_eq!(p63.mask, 1 << 62);
        assert_eq!(p63.bits, 1 << 62);
    }

    #[test]
    fn assignment_enumeration() {
        let mut v: Vec<u64> = assignments_of(0b101).collect();
        v.sort_unstable();
        assert_eq!(v, vec![0b000, 0b001, 0b100, 0b101]);
        assert_eq!(assignments_of(0).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn and_single_builds_up() {
        let c = Cube::TOP.and_single(5, true).and_single(2, false);
        assert!(c.matches(0b100000));
        assert!(!c.matches(0b100100));
    }
}
