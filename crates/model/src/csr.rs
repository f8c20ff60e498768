//! In-place edits of CSR (compressed sparse row) tables.
//!
//! Every adjacency in this repository is a CSR table: one flat item arena
//! plus an offset table whose entries `offsets[r]..offsets[r + 1]` delimit
//! row `r`. An epoch that changes a few rows of a large table edits it
//! where it lies: [`splice_in_place`] replaces the changed item ranges and
//! moves only the runs between them whose position changes, and
//! [`shift_offsets`] moves the row boundaries to match. Editing Δ items
//! costs O(Δ) plus one memmove per run that moves and one add per offset
//! that shifts; nothing is copied when the edits keep every length.

use std::ops::Range;

/// Replaces `edits` — ranges of `items`, ascending and disjoint (each ends
/// at or before the next starts), each with its new length — in place.
/// The run of items after each edit moves by the length change of the
/// edits before it, one `copy_within` per run that moves: left-moving runs
/// first in ascending order, then right-moving runs in descending order,
/// so no run overwrites one not yet moved. Then `fill(j, slot)` writes edit
/// `j`'s new items into `slot`, its place in the edited arena
/// (`slot.len()` is its new length).
///
/// A row is a range; an empty range that grows to 1 inserts an item, and a
/// 1-range that shrinks to 0 removes one. Growth is reserved exactly and a
/// shrunk arena returns its slack, so an arena whose capacity equals its
/// length keeps it so.
///
/// ```
/// use pubsub_model::csr::splice_in_place;
///
/// let mut items = vec![1, 2, 3, 4, 5];
/// // Drop 2, replace 4 with [40, 41], and append 6.
/// let edits = [(1..2, 0), (3..4, 2), (5..5, 1)];
/// let news: [&[i32]; 3] = [&[], &[40, 41], &[6]];
/// splice_in_place(&mut items, &edits, |j, slot| slot.copy_from_slice(news[j]));
/// assert_eq!(items, [1, 3, 40, 41, 5, 6]);
/// ```
///
/// # Panics
///
/// Panics if an edit's range lies past the arena's end. In debug builds,
/// also if the edits are not ascending and disjoint.
pub fn splice_in_place<T: Copy + Default>(
    items: &mut Vec<T>,
    edits: &[(Range<usize>, usize)],
    mut fill: impl FnMut(usize, &mut [T]),
) {
    debug_assert!(edits.windows(2).all(|w| w[0].0.end <= w[1].0.start));
    let old_len = items.len();
    let (grown, dropped) = edits
        .iter()
        .fold((0, 0), |(g, d), (range, len)| (g + len, d + range.len()));
    let new_len = old_len + grown - dropped;
    if new_len > old_len {
        items.reserve_exact(new_len - old_len);
        items.resize(new_len, T::default());
    }
    // The run after edit `j` spans from its end to the next edit's start
    // and moves by the length change of edits `..=j`.
    let run = |j: usize| edits[j].0.end..edits.get(j + 1).map_or(old_len, |e| e.0.start);
    let change = |(range, len): &(Range<usize>, usize)| *len as isize - range.len() as isize;
    let mut shift = 0isize;
    for (j, edit) in edits.iter().enumerate() {
        shift += change(edit);
        if shift < 0 {
            let src = run(j);
            let to = src.start.wrapping_add_signed(shift);
            items.copy_within(src, to);
        }
    }
    for (j, edit) in edits.iter().enumerate().rev() {
        if shift > 0 {
            let src = run(j);
            let to = src.start + shift.unsigned_abs();
            items.copy_within(src, to);
        }
        shift -= change(edit);
    }
    if new_len < old_len {
        items.truncate(new_len);
        items.shrink_to_fit();
    }
    for (j, edit) in edits.iter().enumerate() {
        let start = edit.0.start.wrapping_add_signed(shift);
        fill(j, &mut items[start..start + edit.1]);
        shift += change(edit);
    }
}

/// Moves the boundaries of a CSR offset table to match rows whose lengths
/// changed: `deltas` gives `(row, length change)` for each changed row,
/// rows strictly ascending. The table first grows to `rows` rows (reserved
/// exactly), the new rows starting empty at the old end. An offset shifts
/// only where the changes before it do not cancel out.
///
/// ```
/// use pubsub_model::csr::shift_offsets;
///
/// // Rows [0, 2), [2, 3), [3, 5); row 0 loses an item, a new row 3 gets 2.
/// let mut offsets = vec![0, 2, 3, 5];
/// shift_offsets(&mut offsets, 4, [(0, -1), (3, 2)]);
/// assert_eq!(offsets, [0, 1, 2, 4, 6]);
/// ```
///
/// # Panics
///
/// Panics if a row is at or past `rows`, or if `rows` is below the
/// table's current row count (in debug builds: also if rows are not
/// strictly ascending).
pub fn shift_offsets(
    offsets: &mut Vec<u32>,
    rows: usize,
    deltas: impl IntoIterator<Item = (usize, isize)>,
) {
    let old_rows = offsets.len() - 1;
    assert!(rows >= old_rows, "a CSR table never loses rows here");
    let end = offsets[old_rows];
    offsets.reserve_exact(rows - old_rows);
    offsets.resize(rows + 1, end);
    // Offsets are packed u32; two's-complement wrapping adds apply a
    // negative shift exactly.
    let mut shift = 0u32;
    let mut next = 0;
    for (row, delta) in deltas {
        debug_assert!(row >= next, "rows must be strictly ascending");
        if shift != 0 {
            for o in &mut offsets[next + 1..=row] {
                *o = o.wrapping_add(shift);
            }
        }
        shift = shift.wrapping_add(delta as u32);
        offsets[row + 1] = offsets[row + 1].wrapping_add(shift);
        next = row + 1;
    }
    if shift != 0 {
        for o in &mut offsets[next + 1..] {
            *o = o.wrapping_add(shift);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_move_both_ways_without_clobbering() {
        // Left shift, then right shift, then left again.
        let mut items: Vec<u32> = (0..10).collect();
        let edits = [(1..3, 0), (4..4, 3), (7..9, 1)];
        let news: [&[u32]; 3] = [&[], &[70, 71, 72], &[90]];
        splice_in_place(&mut items, &edits, |j, slot| slot.copy_from_slice(news[j]));
        assert_eq!(items, [0, 3, 70, 71, 72, 4, 5, 6, 90, 9]);
        assert_eq!(items.capacity(), items.len());
    }

    #[test]
    fn empty_arena_and_no_edits() {
        let mut items: Vec<u32> = Vec::new();
        splice_in_place(&mut items, &[(0..0, 2), (0..0, 1)], |j, slot| {
            slot.fill(j as u32 + 1);
        });
        assert_eq!(items, [1, 1, 2]);
        splice_in_place(&mut items, &[], |_, _| unreachable!());
        assert_eq!(items, [1, 1, 2]);
        let mut offsets = vec![0];
        shift_offsets(&mut offsets, 2, [(1, 3)]);
        assert_eq!(offsets, [0, 0, 3]);
        shift_offsets(&mut offsets, 2, []);
        assert_eq!(offsets, [0, 0, 3]);
    }
}
