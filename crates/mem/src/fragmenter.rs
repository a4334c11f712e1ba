//! Deterministic memory fragmentation: driving a [`PhysMem`] to a target
//! FMFI (free memory fragmentation index) the way the paper's open-source
//! fragmentation tool drives a real server.
//!
//! The paper evaluates everything at one pinned fragmentation level
//! (0.7 FMFI) and sweeps the 0.0→0.9 range for its fragmentation curves.
//! [`Fragmenter::SWEEP_FMFI`] is the canonical form of that sweep; the
//! `mehpt-lab` experiment grids build their fragmentation axis from it so
//! every layer of the stack agrees on the exact FMFI points.

use mehpt_types::rng::Xoshiro256;

use crate::phys::{AllocTag, Chunk, PhysMem, FMFI_REF_ORDER};

/// Drives physical memory to a target fragmentation level.
///
/// Reproduces the paper's methodology (Section III / VI): "We conduct
/// experiments on a Linux-based server with different fragmentation levels
/// using an open-source fragmentation tool" at 0.7 FMFI. The fragmenter pins
/// single 4KB frames scattered across memory — one inside a fraction of the
/// 2MB-aligned regions — which is exactly what breaks huge contiguous
/// allocations on real machines while consuming almost no memory itself.
///
/// Pins are *movable* (the OS can migrate them during compaction, at a cost)
/// up to 0.7 FMFI. Beyond 0.7, a growing fraction of pins is unmovable, so
/// 64MB allocations start failing outright — matching the paper's
/// observation that above 0.7 FMFI the ECPT runs cannot finish.
///
/// # Examples
///
/// ```
/// use mehpt_mem::{Fragmenter, PhysMem};
/// use mehpt_types::rng::Xoshiro256;
/// use mehpt_types::GIB;
///
/// let mut mem = PhysMem::new(GIB);
/// let mut rng = Xoshiro256::seed_from_u64(1);
/// Fragmenter::fragment(&mut mem, 0.7, &mut rng);
/// assert!((mem.fmfi() - 0.7).abs() < 0.05);
/// ```
#[derive(Debug)]
pub struct Fragmenter;

impl Fragmenter {
    /// The FMFI level up to which all pinned ballast remains movable.
    pub const MOVABLE_LIMIT: f64 = 0.7;

    /// The paper's fragmentation sweep (its Fig. 7-style curves): FMFI
    /// 0.0 → 0.9 in 0.1 steps. 0.7 is the pinned evaluation point; above
    /// it, a growing share of the ballast is unmovable and 64MB
    /// contiguous allocations start failing outright.
    pub const SWEEP_FMFI: [f64; 10] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

    /// Fragments `mem` until its scalar FMFI is within ~0.01 of
    /// `target_fmfi` (clamped to `[0, 0.99]`).
    ///
    /// Deterministic for a given `rng` state. The pinned ballast stays
    /// allocated in `mem` under the `Pinned*` tags for good: the machine
    /// stays fragmented.
    pub fn fragment(mem: &mut PhysMem, target_fmfi: f64, rng: &mut Xoshiro256) {
        let target = target_fmfi.clamp(0.0, 0.99);
        let region_frames = 1u64 << FMFI_REF_ORDER;
        let regions = mem.total_bytes() / crate::FRAME_BYTES / region_frames;
        let unmovable_p =
            ((target - Self::MOVABLE_LIMIT) / (1.0 - Self::MOVABLE_LIMIT)).clamp(0.0, 1.0);
        let mut pins = Vec::new();
        // First pass: pin one random frame in each region with probability
        // `target` — this lands the FMFI close to the target.
        for region in 0..regions {
            if rng.next_bool(target) {
                Self::pin_in_region(mem, region, region_frames, unmovable_p, rng, &mut pins);
            }
        }
        // Refinement: nudge toward the target.
        for _ in 0..(4 * regions).max(16) {
            let fmfi = mem.fmfi();
            if (fmfi - target).abs() <= 0.01 {
                break;
            }
            if fmfi < target {
                let region = rng.next_below(regions.max(1));
                Self::pin_in_region(mem, region, region_frames, unmovable_p, rng, &mut pins);
            } else if let Some(chunk) = pins.pop() {
                mem.free(chunk);
            } else {
                break;
            }
        }
    }

    fn pin_in_region(
        mem: &mut PhysMem,
        region: u64,
        region_frames: u64,
        unmovable_p: f64,
        rng: &mut Xoshiro256,
        pins: &mut Vec<Chunk>,
    ) {
        let tag = if rng.next_bool(unmovable_p) {
            AllocTag::PinnedUnmovable
        } else {
            AllocTag::PinnedMovable
        };
        // Try a few random frames within the region; occupied ones are skipped.
        for _ in 0..8 {
            let frame = region * region_frames + rng.next_below(region_frames);
            if let Some(chunk) = mem.alloc_frame_at(frame, tag) {
                pins.push(chunk);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocCostModel;
    use mehpt_types::{GIB, MIB};

    fn mem(bytes: u64) -> PhysMem {
        PhysMem::with_cost_model(bytes, AllocCostModel::zero_cost())
    }

    /// Bytes the fragmenter's ballast holds in `m`.
    fn pinned_bytes(m: &PhysMem) -> u64 {
        let stats = m.stats();
        stats.tag(AllocTag::PinnedMovable).current_bytes
            + stats.tag(AllocTag::PinnedUnmovable).current_bytes
    }

    #[test]
    fn hits_target_fmfi() {
        for target in [0.0, 0.3, 0.5, 0.7, 0.9] {
            let mut m = mem(GIB);
            let mut rng = Xoshiro256::seed_from_u64(42);
            Fragmenter::fragment(&mut m, target, &mut rng);
            assert!(
                (m.fmfi() - target).abs() < 0.05,
                "target {target}, got {}",
                m.fmfi()
            );
        }
    }

    #[test]
    fn ballast_memory_is_tiny() {
        let mut m = mem(GIB);
        let mut rng = Xoshiro256::seed_from_u64(1);
        Fragmenter::fragment(&mut m, 0.7, &mut rng);
        // One 4KB pin per 2MB region at most a few times over.
        assert!(pinned_bytes(&m) < 2 * 512 * crate::FRAME_BYTES);
        assert!(m.free_bytes() > m.total_bytes() * 9 / 10);
    }

    #[test]
    fn at_0_7_large_allocations_succeed_via_compaction() {
        let mut m = mem(GIB);
        let mut rng = Xoshiro256::seed_from_u64(7);
        Fragmenter::fragment(&mut m, 0.7, &mut rng);
        let chunk = m.alloc(64 * MIB, AllocTag::PageTable);
        assert!(chunk.is_ok(), "64MB at 0.7 FMFI must succeed: {chunk:?}");
        assert!(m.stats().compactions >= 1);
    }

    #[test]
    fn beyond_0_7_large_allocations_fail() {
        // The paper: "when we increase the memory fragmentation over 0.7 ...
        // the system is unable to allocate 64MB of contiguous memory".
        let mut m = mem(GIB);
        let mut rng = Xoshiro256::seed_from_u64(7);
        Fragmenter::fragment(&mut m, 0.9, &mut rng);
        let res = m.alloc(64 * MIB, AllocTag::PageTable);
        assert!(res.is_err(), "64MB at 0.9 FMFI must fail");
    }

    #[test]
    fn small_allocations_always_succeed() {
        let mut m = mem(GIB);
        let mut rng = Xoshiro256::seed_from_u64(3);
        Fragmenter::fragment(&mut m, 0.9, &mut rng);
        for _ in 0..100 {
            assert!(m.alloc(8 * 1024, AllocTag::PageTable).is_ok());
        }
    }

    #[test]
    fn sweep_is_sorted_and_brackets_the_movable_limit() {
        let s = Fragmenter::SWEEP_FMFI;
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.contains(&Fragmenter::MOVABLE_LIMIT));
        assert!(s.iter().all(|f| (0.0..1.0).contains(f)));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut m = mem(GIB);
            let mut rng = Xoshiro256::seed_from_u64(seed);
            Fragmenter::fragment(&mut m, 0.6, &mut rng);
            (pinned_bytes(&m), m.fmfi())
        };
        assert_eq!(run(11), run(11));
    }
}
