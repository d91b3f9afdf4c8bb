//! Region-constrained placement and floorplan rendering.
//!
//! Reproduces the content of the paper's Figs. 3 and 4: the mapped
//! benign circuit is *scattered* across its tenant region with its
//! voltage-sensitive endpoints sprinkled throughout, while a purpose-
//! built TDC is a compact column — the visual argument for why
//! structural/placement screening cannot spot the benign sensor.

use serde::{Deserialize, Serialize};
use slm_pdn::noise::Rng64;

/// What occupies a CLB cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// Unused fabric.
    Empty,
    /// Benign-circuit logic (Figs. 3/4: yellow).
    BenignLogic,
    /// A benign-circuit cell driving a sensitive endpoint (red).
    SensitiveEndpoint,
    /// TDC sensor logic (green).
    Tdc,
    /// AES victim logic (lilac).
    Aes,
    /// Ring-oscillator array (light blue).
    Ro,
}

impl CellKind {
    /// Single-character glyph for ASCII rendering.
    fn glyph(self) -> char {
        match self {
            CellKind::Empty => '.',
            CellKind::BenignLogic => 'b',
            CellKind::SensitiveEndpoint => 'S',
            CellKind::Tdc => 'T',
            CellKind::Aes => 'A',
            CellKind::Ro => 'r',
        }
    }
}

/// A rectangular region of the CLB grid (a tenant's partial-
/// reconfiguration slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rect {
    /// Left column.
    pub x: usize,
    /// Top row.
    pub y: usize,
    /// Width in cells.
    pub w: usize,
    /// Height in cells.
    pub h: usize,
}

impl Rect {
    /// Number of cells.
    pub fn area(&self) -> usize {
        self.w * self.h
    }
}

/// A placed floorplan on a CLB grid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Floorplan {
    width: usize,
    height: usize,
    cells: Vec<CellKind>,
}

impl Floorplan {
    /// An empty grid.
    fn new(width: usize, height: usize) -> Self {
        Floorplan {
            width,
            height,
            cells: vec![CellKind::Empty; width * height],
        }
    }

    /// A grid sized like the XC7Z020 CLB array (approximately 50 × 50
    /// usable CLB columns/rows for this model's purposes).
    pub fn zynq7020() -> Self {
        Self::new(50, 50)
    }

    /// The cell at `(x, y)`.
    fn cell(&self, x: usize, y: usize) -> CellKind {
        self.cells[y * self.width + x]
    }

    /// Number of cells of a given kind.
    pub fn count(&self, kind: CellKind) -> usize {
        self.cells.iter().filter(|&&c| c == kind).count()
    }

    /// Splits the grid into a `rows × cols` lattice of region
    /// rectangles — the partial-reconfiguration slots a cloud scheduler
    /// hands out to tenants. Regions tile the grid exactly (remainder
    /// cells go to the last row/column) and come back in row-major
    /// order, so the slot list is a pure function of the geometry.
    ///
    /// # Panics
    ///
    /// Panics if `rows`/`cols` is zero or exceeds the grid dimensions.
    pub fn partition(&self, rows: usize, cols: usize) -> Vec<Rect> {
        assert!(
            (1..=self.height).contains(&rows) && (1..=self.width).contains(&cols),
            "partition {rows}x{cols} does not fit a {}x{} grid",
            self.width,
            self.height
        );
        let (rw, rh) = (self.width / cols, self.height / rows);
        let mut regions = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let (x, y) = (c * rw, r * rh);
                regions.push(Rect {
                    x,
                    y,
                    w: if c + 1 == cols { self.width - x } else { rw },
                    h: if r + 1 == rows { self.height - y } else { rh },
                });
            }
        }
        regions
    }

    /// Scatter-places `count` cells of `kind` pseudo-randomly inside
    /// `region` (mimicking how a mapper spreads a non-constrained
    /// circuit), skipping occupied cells. Returns the placed positions.
    ///
    /// # Panics
    ///
    /// Panics if the region does not fit on the grid or has fewer free
    /// cells than `count`.
    pub fn scatter(
        &mut self,
        region: Rect,
        kind: CellKind,
        count: usize,
        seed: u64,
    ) -> Vec<(usize, usize)> {
        assert!(region.x + region.w <= self.width, "region exceeds grid");
        assert!(region.y + region.h <= self.height, "region exceeds grid");
        let mut free: Vec<(usize, usize)> = (0..region.area())
            .map(|i| (region.x + i % region.w, region.y + i / region.w))
            .filter(|&(x, y)| self.cell(x, y) == CellKind::Empty)
            .collect();
        assert!(free.len() >= count, "region too small for {count} cells");
        // Fisher–Yates with the deterministic workspace RNG.
        let mut rng = Rng64::new(seed);
        for i in (1..free.len()).rev() {
            free.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let placed: Vec<(usize, usize)> = free.into_iter().take(count).collect();
        for &(x, y) in &placed {
            self.cells[y * self.width + x] = kind;
        }
        placed
    }

    /// Column-places `count` cells of `kind` as a compact vertical strip
    /// starting at the region's top-left — how a placement-constrained
    /// TDC looks.
    ///
    /// # Panics
    ///
    /// Panics if the region cannot hold `count` cells.
    pub fn column(&mut self, region: Rect, kind: CellKind, count: usize) -> Vec<(usize, usize)> {
        assert!(count <= region.area(), "region too small");
        let mut placed = Vec::with_capacity(count);
        'outer: for dx in 0..region.w {
            for dy in 0..region.h {
                if placed.len() == count {
                    break 'outer;
                }
                let (x, y) = (region.x + dx, region.y + dy);
                self.cells[y * self.width + x] = kind;
                placed.push((x, y));
            }
        }
        placed
    }

    /// Upgrades `n` already-placed `BenignLogic` cells to
    /// `SensitiveEndpoint` markers, pseudo-randomly (the red cells of
    /// Figs. 3/4).
    pub fn mark_sensitive(&mut self, n: usize, seed: u64) -> usize {
        let mut idx: Vec<usize> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == CellKind::BenignLogic)
            .map(|(i, _)| i)
            .collect();
        let mut rng = Rng64::new(seed);
        for i in (1..idx.len()).rev() {
            idx.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let marked = idx.len().min(n);
        for &i in idx.iter().take(marked) {
            self.cells[i] = CellKind::SensitiveEndpoint;
        }
        marked
    }

    /// Renders the grid as ASCII art with a legend.
    pub fn render_ascii(&self) -> String {
        let mut out = String::with_capacity((self.width + 1) * self.height + 128);
        for y in 0..self.height {
            for x in 0..self.width {
                out.push(self.cell(x, y).glyph());
            }
            out.push('\n');
        }
        out.push_str("legend: b=benign logic  S=sensitive endpoint  T=TDC  A=AES  r=RO  .=empty\n");
        out
    }

    /// Packing density of a kind: cells divided by bounding-box area.
    /// A placement-constrained TDC is dense (≈ 1); a mapper-scattered
    /// benign circuit is sparse — the quantitative form of the visual
    /// contrast in Figs. 3/4.
    pub fn density(&self, kind: CellKind) -> f64 {
        let mut min_x = usize::MAX;
        let mut min_y = usize::MAX;
        let mut max_x = 0usize;
        let mut max_y = 0usize;
        let mut count = 0usize;
        for i in 0..self.cells.len() {
            if self.cells[i] == kind {
                let (x, y) = (i % self.width, i / self.width);
                min_x = min_x.min(x);
                min_y = min_y.min(y);
                max_x = max_x.max(x);
                max_y = max_y.max(y);
                count += 1;
            }
        }
        if count == 0 {
            return 0.0;
        }
        let area = (max_x - min_x + 1) * (max_y - min_y + 1);
        count as f64 / area as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_tiles_the_grid_exactly() {
        for (w, h, rows, cols) in [(50, 50, 2, 2), (50, 50, 3, 4), (7, 5, 5, 7), (10, 10, 1, 1)] {
            let fp = Floorplan::new(w, h);
            let regions = fp.partition(rows, cols);
            assert_eq!(regions.len(), rows * cols);
            assert_eq!(
                regions.iter().map(Rect::area).sum::<usize>(),
                w * h,
                "{rows}x{cols} over {w}x{h} must cover every cell"
            );
            // No overlap: paint each region and count coverage.
            let mut hits = vec![0u8; w * h];
            for r in &regions {
                assert!(r.x + r.w <= w && r.y + r.h <= h, "region off-grid");
                assert!(r.w > 0 && r.h > 0, "degenerate region");
                for y in r.y..r.y + r.h {
                    for x in r.x..r.x + r.w {
                        hits[y * w + x] += 1;
                    }
                }
            }
            assert!(hits.iter().all(|&c| c == 1), "overlapping regions");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn partition_rejects_oversubscribed_lattice() {
        Floorplan::new(4, 4).partition(5, 2);
    }

    #[test]
    fn scatter_stays_in_region_and_counts() {
        let mut fp = Floorplan::zynq7020();
        let region = Rect {
            x: 5,
            y: 5,
            w: 20,
            h: 20,
        };
        let placed = fp.scatter(region, CellKind::BenignLogic, 150, 1);
        assert_eq!(placed.len(), 150);
        assert_eq!(fp.count(CellKind::BenignLogic), 150);
        for (x, y) in placed {
            assert!((5..25).contains(&x) && (5..25).contains(&y));
        }
    }

    #[test]
    fn scatter_avoids_occupied() {
        let mut fp = Floorplan::new(4, 4);
        let region = Rect {
            x: 0,
            y: 0,
            w: 4,
            h: 4,
        };
        fp.column(region, CellKind::Tdc, 8);
        let placed = fp.scatter(region, CellKind::BenignLogic, 8, 2);
        assert_eq!(placed.len(), 8);
        assert_eq!(fp.count(CellKind::Tdc), 8);
    }

    #[test]
    fn tdc_column_is_more_compact_than_scatter() {
        let mut fp = Floorplan::zynq7020();
        fp.column(
            Rect {
                x: 0,
                y: 0,
                w: 2,
                h: 40,
            },
            CellKind::Tdc,
            64,
        );
        fp.scatter(
            Rect {
                x: 10,
                y: 10,
                w: 30,
                h: 30,
            },
            CellKind::BenignLogic,
            200,
            3,
        );
        assert!(
            fp.density(CellKind::Tdc) > 3.0 * fp.density(CellKind::BenignLogic),
            "tdc density {} vs benign {}",
            fp.density(CellKind::Tdc),
            fp.density(CellKind::BenignLogic)
        );
        assert_eq!(fp.density(CellKind::Aes), 0.0);
    }

    #[test]
    fn mark_sensitive_converts_cells() {
        let mut fp = Floorplan::new(10, 10);
        fp.scatter(
            Rect {
                x: 0,
                y: 0,
                w: 10,
                h: 10,
            },
            CellKind::BenignLogic,
            50,
            4,
        );
        let marked = fp.mark_sensitive(20, 5);
        assert_eq!(marked, 20);
        assert_eq!(fp.count(CellKind::SensitiveEndpoint), 20);
        assert_eq!(fp.count(CellKind::BenignLogic), 30);
        // asking for more than available clamps
        assert_eq!(fp.mark_sensitive(100, 6), 30);
    }

    #[test]
    fn ascii_render_shape() {
        let mut fp = Floorplan::new(6, 3);
        fp.column(
            Rect {
                x: 0,
                y: 0,
                w: 1,
                h: 3,
            },
            CellKind::Tdc,
            3,
        );
        let art = fp.render_ascii();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4); // 3 rows + legend
        assert!(lines[0].starts_with('T'));
        assert!(lines[3].contains("legend"));
    }

    #[test]
    #[should_panic(expected = "region too small")]
    fn overfull_region_panics() {
        let mut fp = Floorplan::new(3, 3);
        fp.scatter(
            Rect {
                x: 0,
                y: 0,
                w: 2,
                h: 2,
            },
            CellKind::Aes,
            5,
            1,
        );
    }
}
