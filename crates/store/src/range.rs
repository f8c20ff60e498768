//! The id range check of every store load: the largest id of a chunk the
//! reader has just read, compared against the arena's bound while the
//! chunk is still in cache.
//!
//! One fold computes it. On an x86_64 CPU with SSE4.1 the fold is
//! compiled with that feature, where the unsigned 32-bit `max` is one
//! instruction (`pmaxud`); elsewhere the same fold runs on the baseline
//! target, whose SSE2 needs a compare and a blend per `max`. The baseline
//! fold made the benchmark's plan-twitter store load 1.3 ms slower on a
//! 2-vCPU Xeon guest (11.0 against 9.7 ms, medians of 10 alternated
//! runs).

/// The largest of `ids`, or 0 for none.
pub(crate) fn max(ids: &[u32]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sse4.1") {
        // SAFETY: `max_sse41` enables exactly `sse4.1`, detected just above.
        return unsafe { max_sse41(ids) };
    }
    fold_max(ids)
}

/// The fold both paths compile: a branchless `max` over every element,
/// which the compiler vectorizes.
#[inline(always)]
fn fold_max(ids: &[u32]) -> u32 {
    let mut max = 0;
    for &id in ids {
        max = max.max(id);
    }
    max
}

/// [`fold_max`] compiled with SSE4.1.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
fn max_sse41(ids: &[u32]) -> u32 {
    fold_max(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pseudo-random ids below 2³⁰; `4096 + 16` so every start offset has
    /// room for every length.
    fn data() -> Vec<u32> {
        (0..4096 + 16u32)
            .map(|i| i.wrapping_mul(2_654_435_761) >> 2)
            .collect()
    }

    /// Checks `kernel` against the plain fold at every length 0..=4096
    /// from each of the 16 start offsets. Each window's maximum is a
    /// planted id above every other, at a position that moves with the
    /// offset from the window's first id (offset 0) to its last (offset
    /// 15), so over the lengths it sits at every position, last included.
    fn matches_the_plain_fold_everywhere(name: &str, kernel: impl Fn(&[u32]) -> u32) {
        let mut data = data();
        for offset in 0..16 {
            assert_eq!(kernel(&[]), 0, "{name} gave a maximum of no ids");
            for len in 1..=4096 {
                let at = offset + (len - 1) * offset / 15;
                let planted = (1 << 30) + (len * 16 + offset) as u32;
                let kept = std::mem::replace(&mut data[at], planted);
                let window = &data[offset..offset + len];
                assert_eq!(
                    kernel(window),
                    planted,
                    "{name} diverged at offset {offset}, length {len}, maximum at {}",
                    at - offset
                );
                data[at] = kept;
            }
        }
    }

    #[test]
    fn portable_fold_matches_the_plain_fold_everywhere() {
        matches_the_plain_fold_everywhere("portable fold", fold_max);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse41_fold_matches_the_plain_fold_everywhere() {
        if !is_x86_feature_detected!("sse4.1") {
            eprintln!("skipped: this CPU lacks sse4.1");
            return;
        }
        matches_the_plain_fold_everywhere("sse4.1 fold", |ids| {
            // SAFETY: sse4.1 was detected above.
            unsafe { max_sse41(ids) }
        });
    }
}
