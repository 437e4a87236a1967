//! A table of equal-length rows stored as dimension-major tiles.
//!
//! [`metric::sq_l2_tile`](crate::metric::sq_l2_tile) scores eight rows at a
//! time from a block in which one dimension of all eight is one contiguous
//! run. [`TileTable`] keeps a whole table in that layout, so an exhaustive
//! scan reads one flat buffer front to back instead of a pointer and a
//! separate heap chunk per row.

use crate::metric::TILE;

/// Rows `0..len()` of `dims` values each, in tiles of [`TILE`]: row `i` is
/// lane `i % TILE` of tile `i / TILE`, tile `t` is the `TILE × dims` block
/// at `t * TILE * dims`, and coordinate `j` of lane `l` sits at
/// `tile[j * TILE + l]`. Lanes past the last row hold zeros.
///
/// ```
/// use qd_linalg::TileTable;
///
/// let table = TileTable::from_rows(2, &[[1.0f32, 2.0], [3.0, 4.0]]);
/// assert_eq!(table.len(), 2);
/// assert_eq!(table.row(1).collect::<Vec<_>>(), [3.0, 4.0]);
/// assert_eq!(table.tiles().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TileTable {
    dims: usize,
    len: usize,
    tiles: Vec<f32>,
}

impl TileTable {
    /// An empty table with room for `rows` rows of `dims` values.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    pub fn with_capacity(dims: usize, rows: usize) -> Self {
        assert!(dims > 0, "a tile table needs at least one dimension");
        Self {
            dims,
            len: 0,
            tiles: Vec::with_capacity(rows.div_ceil(TILE) * TILE * dims),
        }
    }

    /// The table of `rows`, in order.
    ///
    /// # Panics
    /// Panics if `dims == 0` or a row does not hold `dims` values.
    pub fn from_rows<V: AsRef<[f32]>>(dims: usize, rows: &[V]) -> Self {
        let mut table = Self::with_capacity(dims, rows.len());
        for row in rows {
            table.push(row.as_ref().iter().copied());
        }
        table
    }

    /// Appends `row` as row `len()`, starting a zeroed tile when the last
    /// one is full.
    ///
    /// # Panics
    /// Panics if `row` does not yield exactly `dims` values.
    pub fn push(&mut self, row: impl IntoIterator<Item = f32>) {
        let lane = self.len % TILE;
        if lane == 0 {
            self.tiles.resize(self.tiles.len() + TILE * self.dims, 0.0);
        }
        let start = self.tiles.len() - TILE * self.dims;
        let mut written = 0;
        for (at, value) in (start + lane..).step_by(TILE).zip(row) {
            assert!(written < self.dims, "row longer than the table's dims");
            self.tiles[at] = value;
            written += 1;
        }
        assert_eq!(written, self.dims, "row shorter than the table's dims");
        self.len += 1;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Values per row.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Row `id`'s values, in dimension order.
    ///
    /// # Panics
    /// Panics if `id >= len()`.
    pub fn row(&self, id: usize) -> impl ExactSizeIterator<Item = f32> + '_ {
        assert!(id < self.len, "row {id} of a {}-row table", self.len);
        let tile = &self.tiles[(id / TILE) * TILE * self.dims..][..TILE * self.dims];
        tile[id % TILE..].iter().step_by(TILE).copied()
    }

    /// The tiles in row order, each `TILE * dims` values; the last one's
    /// lanes past `len()` hold zeros.
    pub fn tiles(&self) -> std::slice::ChunksExact<'_, f32> {
        self.tiles.chunks_exact(TILE * self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize, dims: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| (0..dims).map(|j| (i * 100 + j) as f32 + 0.5).collect())
            .collect()
    }

    #[test]
    fn rows_come_back_as_pushed_and_padding_is_zero() {
        for n in [0usize, 1, 7, 8, 9, 17] {
            for dims in [1usize, 3, 37] {
                let want = rows(n, dims);
                let table = TileTable::from_rows(dims, &want);
                assert_eq!(table.len(), n);
                assert_eq!(table.is_empty(), n == 0);
                for (id, row) in want.iter().enumerate() {
                    assert_eq!(&table.row(id).collect::<Vec<_>>(), row, "n {n} dims {dims}");
                }
                let tiles: Vec<&[f32]> = table.tiles().collect();
                assert_eq!(tiles.len(), n.div_ceil(TILE));
                for (t, tile) in tiles.iter().enumerate() {
                    assert_eq!(tile.len(), TILE * dims);
                    for (i, &v) in tile.iter().enumerate() {
                        let (j, lane) = (i / TILE, i % TILE);
                        let id = t * TILE + lane;
                        let expect = want.get(id).map_or(0.0, |row| row[j]);
                        assert_eq!(
                            v.to_bits(),
                            expect.to_bits(),
                            "tile {t} dim {j} lane {lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_row_of_the_wrong_length_is_refused() {
        let mut table = TileTable::with_capacity(3, 2);
        let short = std::panic::catch_unwind(move || table.push([1.0f32, 2.0]));
        assert!(short.is_err());
        let mut table = TileTable::with_capacity(3, 2);
        let long = std::panic::catch_unwind(move || table.push([1.0f32; 4]));
        assert!(long.is_err());
    }

    #[test]
    #[should_panic(expected = "row 2 of a 2-row table")]
    fn a_row_past_the_end_is_refused() {
        let table = TileTable::from_rows(2, &rows(2, 2));
        let _ = table.row(2);
    }
}
