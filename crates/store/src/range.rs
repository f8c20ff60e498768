//! The id range check of a store load where the CRC's folding kernel does
//! not take it: the largest id of a chunk the reader has just read,
//! compared against the arena's bound while the chunk is still in cache.
//!
//! Where the CPU has PCLMULQDQ and SSE4.1, the CRC's folding kernel
//! ([`crc::update_max`](crate::crc::update_max)) takes each chunk's
//! maximum from the lanes it loads, so the chunk is read once. This plain
//! fold does the check elsewhere: on other CPUs, and for chunks too short
//! for the kernel.

/// The largest of `ids`, or 0 for none: a branchless `max` over every
/// element, which the compiler vectorizes.
pub(crate) fn max(ids: &[u32]) -> u32 {
    let mut max = 0;
    for &id in ids {
        max = max.max(id);
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks the fold at every length 0..=4096 from each of 16 start
    /// offsets into pseudo-random ids below 2³⁰. Each window's maximum is
    /// a planted id above every other, at a position that moves with the
    /// offset from the window's first id (offset 0) to its last (offset
    /// 15), so over the lengths it sits at every position, last included.
    #[test]
    fn portable_fold_matches_the_plain_fold_everywhere() {
        // `4096 + 16` so every start offset has room for every length.
        let mut data: Vec<u32> = (0..4096 + 16u32)
            .map(|i| i.wrapping_mul(2_654_435_761) >> 2)
            .collect();
        for offset in 0..16 {
            assert_eq!(max(&[]), 0, "the fold gave a maximum of no ids");
            for len in 1..=4096 {
                let at = offset + (len - 1) * offset / 15;
                let planted = (1 << 30) + (len * 16 + offset) as u32;
                let kept = std::mem::replace(&mut data[at], planted);
                assert_eq!(
                    max(&data[offset..offset + len]),
                    planted,
                    "the fold diverged at offset {offset}, length {len}, maximum at {}",
                    at - offset
                );
                data[at] = kept;
            }
        }
    }
}
