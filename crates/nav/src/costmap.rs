//! Multi-layer costmap (the CostmapGen node).
//!
//! Mirrors ROS `costmap_2d`: a static layer seeded from the map, an
//! obstacle layer maintained from laser scans (mark hits, ray-clear
//! free space), and an inflation layer spreading cost outward from
//! lethal cells so planners keep clearance. CostmapGen is both an ECN
//! and the first node of the VDP (paper Table II / Fig. 4), so its
//! cycle accounting matters.
//!
//! One update runs these phases over the full grid:
//!
//! 1. **Ray clearing**: trace every beam, clear the cells it passes and
//!    mark its hit.
//! 2. **Lethal seeding**: one branch-free pass turns the static layer
//!    and the live marks into a distance grid of `0` (lethal) or `1e9`.
//! 3. **Chamfer sweeps**: a forward and a backward sweep spread the
//!    distance to the nearest lethal cell. Each row first takes its
//!    three neighbours in the finished row above (below, going back);
//!    those cells are independent of each other, so that pass
//!    vectorizes. Then a serial chain takes the in-row neighbour.
//! 4. **Master pass**: distance and known/unknown state become the
//!    cost, with each distinct distance's `exp` computed once.
//! 5. **Footprint clearing** and the **blocked-cell mask** (below).
//!
//! The split sweeps give the same bits as a per-cell five-way `min`.
//! Every distance is a finite non-negative `f32` (0, `1e9`, or sums of
//! the orthogonal and diagonal steps), with no NaN and no −0. So a
//! `min` returns one of its operands, and any order of the same
//! candidates picks the same value. The in-row term still reads its
//! neighbour's final value. `Work` records the same op counts as
//! before, so virtual time does not move.
//!
//! Every refresh also rebuilds a 1-bit *blocked-cell mask*: one bit
//! per cell, set where the master cost is at least
//! [`COST_INSCRIBED`], packed row-major into `u64` words (each row
//! starts on a word boundary). The refresh is the only writer of the
//! master grid, so the mask never goes stale. DWA asks
//! [`Costmap::footprint_collides`] at every rollout step; for a
//! footprint box inside the grid that test visits only the box's set
//! bits instead of every cell. The mask costs 1 bit per cell: a
//! per-cell count table would answer "box empty" in O(1) but costs
//! 32× the memory on every vehicle of a fleet.

use lgv_types::prelude::*;

/// Cost of a lethal (obstacle) cell.
pub const COST_LETHAL: u8 = 254;
/// Cost of a cell inside the inscribed radius of an obstacle.
pub const COST_INSCRIBED: u8 = 253;
/// Largest cost considered traversable by planners.
pub const COST_FREE_MAX: u8 = 127;
/// Cost assigned to completely unknown cells.
pub const COST_UNKNOWN: u8 = 128;

/// Cycle-cost constants for the costmap work model, calibrated so the
/// lab-map navigation workload draws ≈ 0.86 Gcycles/s (Table II,
/// CostmapGen with a map) at the 5 Hz update rate.
pub mod cost {
    /// Cycles per cell touched in the inflation/refresh pass.
    pub const CYCLES_PER_REFRESH_CELL: f64 = 3200.0;
    /// Cycles per cell traced by the obstacle layer's ray clearing.
    pub const CYCLES_PER_RAY_CELL: f64 = 220.0;
}

/// Costmap configuration.
#[derive(Debug, Clone)]
pub struct CostmapConfig {
    /// Robot (inscribed) radius in metres.
    pub inscribed_radius: f64,
    /// Inflation radius in metres (cost decays to zero here).
    pub inflation_radius: f64,
    /// Exponential decay rate of inflated cost.
    pub cost_scaling: f64,
    /// Obstacle persistence: marks older than this many updates decay.
    pub mark_ttl_updates: u32,
}

impl Default for CostmapConfig {
    fn default() -> Self {
        CostmapConfig {
            inscribed_radius: 0.11,
            inflation_radius: 0.45,
            cost_scaling: 8.0,
            mark_ttl_updates: 25,
        }
    }
}

/// The multi-layer costmap.
#[derive(Debug, Clone)]
pub struct Costmap {
    cfg: CostmapConfig,
    dims: GridDims,
    /// Static layer: lethal where the a-priori map is occupied.
    static_lethal: Vec<bool>,
    /// Obstacle layer: update index when each cell was last marked
    /// (0 = never).
    marked_at: Vec<u32>,
    /// Combined + inflated master grid.
    master: Vec<u8>,
    /// Blocked-cell mask: bit `col % 64` of word
    /// `row * words_per_row + col / 64` is set iff
    /// `master >= COST_INSCRIBED` there. Written only by `refresh`.
    blocked: Vec<u64>,
    updates: u32,
}

impl Costmap {
    /// Build from a static map message (all `OCCUPIED` cells become
    /// lethal; `UNKNOWN` stays unknown until observed).
    pub fn from_map(cfg: CostmapConfig, map: &MapMsg) -> Self {
        let dims = map.dims;
        let static_lethal = map.cells.iter().map(|&c| c == MapMsg::OCCUPIED).collect();
        let mut cm = Costmap {
            cfg,
            dims,
            static_lethal,
            marked_at: vec![0; dims.len()],
            master: vec![COST_UNKNOWN; dims.len()],
            blocked: vec![0; blocked_words(&dims)],
            updates: 0,
        };
        let mut meter = WorkMeter::new();
        cm.refresh(map, None, &mut meter);
        cm
    }

    /// Build over an empty (all-unknown) static layer, for the
    /// exploration workload where SLAM supplies the map incrementally.
    /// The blocked-cell mask starts clear: `COST_UNKNOWN` is below
    /// `COST_INSCRIBED`.
    pub fn empty(cfg: CostmapConfig, dims: GridDims) -> Self {
        Costmap {
            cfg,
            dims,
            static_lethal: vec![false; dims.len()],
            marked_at: vec![0; dims.len()],
            master: vec![COST_UNKNOWN; dims.len()],
            blocked: vec![0; blocked_words(&dims)],
            updates: 0,
        }
    }

    /// Grid geometry.
    pub fn dims(&self) -> &GridDims {
        &self.dims
    }

    /// Master-grid cost of a cell; out of bounds is lethal.
    pub fn cost(&self, idx: GridIndex) -> u8 {
        if self.dims.contains(idx) {
            self.master[self.dims.flat(idx)]
        } else {
            COST_LETHAL
        }
    }

    /// Is the cell traversable for planning (known and sub-inscribed)?
    pub fn traversable(&self, idx: GridIndex) -> bool {
        let c = self.cost(idx);
        c < COST_INSCRIBED && c != COST_UNKNOWN
    }

    /// Is the disc of radius `r` centred at `p` in collision with a
    /// lethal cell (used for trajectory feasibility)? A cell collides
    /// when its cost is at least [`COST_INSCRIBED`] and its centre lies
    /// within `r` plus a cell's half-diagonal of `p`.
    pub fn footprint_collides(&self, p: Point2, r: f64) -> bool {
        let lo = self.dims.world_to_grid(Point2::new(p.x - r, p.y - r));
        let hi = self.dims.world_to_grid(Point2::new(p.x + r, p.y + r));
        let reach = r + self.dims.resolution * 0.71;
        let hits = |idx: GridIndex| self.dims.grid_to_world(idx).distance(p) <= reach;
        if !(self.dims.contains(lo) && self.dims.contains(hi)) {
            // The box crosses the grid edge, where every cell outside
            // is lethal: test cell by cell.
            for row in lo.row..=hi.row {
                for col in lo.col..=hi.col {
                    let idx = GridIndex::new(col, row);
                    if self.cost(idx) >= COST_INSCRIBED && hits(idx) {
                        return true;
                    }
                }
            }
            return false;
        }
        // Inside the grid only the box's set mask bits can collide.
        let words_per_row = blocked_words_per_row(&self.dims);
        let (c0, c1) = (lo.col as usize, hi.col as usize);
        for row in lo.row..=hi.row {
            let words = &self.blocked[row as usize * words_per_row..][..words_per_row];
            for (wi, &word) in words.iter().enumerate().take(c1 / 64 + 1).skip(c0 / 64) {
                let first = if wi == c0 / 64 { c0 % 64 } else { 0 };
                let last = if wi == c1 / 64 { c1 % 64 } else { 63 };
                let mut bits = word & (u64::MAX << first) & (u64::MAX >> (63 - last));
                while bits != 0 {
                    let col = (wi * 64) as i32 + bits.trailing_zeros() as i32;
                    bits &= bits - 1;
                    if hits(GridIndex::new(col, row)) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Replace the static layer (exploration: SLAM publishes a fresh
    /// map).
    pub fn set_static_map(&mut self, map: &MapMsg) {
        assert_eq!(map.dims, self.dims, "map geometry must match");
        for (dst, &c) in self.static_lethal.iter_mut().zip(&map.cells) {
            *dst = c == MapMsg::OCCUPIED;
        }
    }

    /// Update the obstacle layer from a scan taken at `pose`, then
    /// rebuild the master grid (static ∪ obstacles, inflated). This is
    /// one CostmapGen activation; `map` is the current known map used
    /// to distinguish free from unknown.
    pub fn update(&mut self, map: &MapMsg, pose: Pose2D, scan: &LaserScan, meter: &mut WorkMeter) {
        self.updates += 1;
        let origin = pose.position();
        let mut ray_cells = 0u64;
        for i in 0..scan.len() {
            let mut ray = FlatRay::new(&self.dims, origin, scan.beam_endpoint(pose, i));
            // Clear along the beam, up to (excluding) the end cell; the
            // count includes off-grid cells and the end cell itself.
            for cell in &mut ray {
                ray_cells += 1;
                if let Some(flat) = cell {
                    self.marked_at[flat] = 0;
                }
            }
            ray_cells += ray.reached_end() as u64;
            // Mark the hit.
            if scan.is_hit(i) {
                if let Some(flat) = ray.end_flat() {
                    self.marked_at[flat] = self.updates;
                }
            }
        }
        meter.serial_ops(ray_cells, cost::CYCLES_PER_RAY_CELL);
        self.refresh(map, Some(pose.position()), meter);
    }

    /// Rebuild the master grid: combine layers and run the inflation
    /// pass (a two-sweep chamfer distance transform). When the robot
    /// pose is known, its footprint is cleared afterwards — the ROS
    /// `costmap_2d` footprint-clearing behaviour that prevents phantom
    /// marks (SLAM pose jitter, stale readings) from trapping the
    /// robot inside its own inscribed zone.
    fn refresh(&mut self, map: &MapMsg, robot: Option<Point2>, meter: &mut WorkMeter) {
        assert_eq!(map.dims, self.dims, "map geometry must match");
        let (w, h) = (self.dims.width as usize, self.dims.height as usize);
        let n = w * h;
        assert_eq!(map.cells.len(), n, "map cells must match its geometry");

        // Distance (in metres) to the nearest lethal cell, via a
        // two-pass chamfer transform: lethal cells seed 0, all others
        // a "far" 1e9. The grid lives for this call only; kept on every
        // vehicle of a fleet it would cost 4 B per cell each.
        let (updates, ttl) = (self.updates, self.cfg.mark_ttl_updates);
        let mut dist: Vec<f32> = self
            .static_lethal
            .iter()
            .zip(&self.marked_at)
            .map(|(&stat, &mark)| {
                let marked = (mark != 0) & (updates - mark < ttl);
                if stat | marked {
                    0.0
                } else {
                    1e9
                }
            })
            .collect();
        let res = self.dims.resolution;
        let (orth, diag) = (res as f32, res as f32 * std::f32::consts::SQRT_2);
        // Forward sweep: each row takes the row above, then its left
        // neighbour.
        for row in 0..h {
            let (done, rest) = dist.split_at_mut(row * w);
            let cur = &mut rest[..w];
            if row > 0 {
                relax_from_row(cur, &done[(row - 1) * w..], orth, diag);
            }
            let mut left = f32::INFINITY;
            for d in cur.iter_mut() {
                left = min(*d, left + orth);
                *d = left;
            }
        }
        // Backward sweep: each row takes the row below, then its right
        // neighbour.
        for row in (0..h).rev() {
            let (rest, done) = dist.split_at_mut((row + 1) * w);
            let cur = &mut rest[row * w..];
            if row + 1 < h {
                relax_from_row(cur, &done[..w], orth, diag);
            }
            let mut right = f32::INFINITY;
            for d in cur.iter_mut().rev() {
                right = min(*d, right + orth);
                *d = right;
            }
        }

        // Master grid from distance + known/unknown state.
        let inscribed = self.cfg.inscribed_radius as f32;
        let inflate = self.cfg.inflation_radius as f32;
        let scaling = self.cfg.cost_scaling as f32;
        let mut memo = InflationMemo::new();
        for (((m, &d), &cell), &mark) in self
            .master
            .iter_mut()
            .zip(&dist)
            .zip(&map.cells)
            .zip(&self.marked_at)
        {
            *m = if d <= 0.0 {
                COST_LETHAL
            } else if d <= inscribed {
                COST_INSCRIBED
            } else if d <= inflate {
                memo.cost(d, |d| {
                    let factor = (-scaling * (d - inscribed)).exp().clamp(0.0, 1.0);
                    (factor * COST_FREE_MAX as f32) as u8
                })
            } else if cell == MapMsg::UNKNOWN && mark == 0 {
                COST_UNKNOWN
            } else {
                0
            };
        }
        // Footprint clearing around the robot.
        if let Some(p) = robot {
            let clear_r = self.cfg.inscribed_radius + 0.06;
            let lo = self
                .dims
                .world_to_grid(Point2::new(p.x - clear_r, p.y - clear_r));
            let hi = self
                .dims
                .world_to_grid(Point2::new(p.x + clear_r, p.y + clear_r));
            for row in lo.row..=hi.row {
                for col in lo.col..=hi.col {
                    let idx = GridIndex::new(col, row);
                    if self.dims.contains(idx)
                        && self.dims.grid_to_world(idx).distance(p) <= clear_r
                    {
                        let flat = self.dims.flat(idx);
                        self.master[flat] = self.master[flat].min(COST_FREE_MAX);
                        self.marked_at[flat] = 0;
                    }
                }
            }
        }

        // Blocked-cell mask from the final master grid.
        let words_per_row = blocked_words_per_row(&self.dims);
        for (cells, words) in self
            .master
            .chunks_exact(w)
            .zip(self.blocked.chunks_exact_mut(words_per_row))
        {
            for (chunk, word) in cells.chunks(64).zip(words.iter_mut()) {
                *word = chunk.iter().enumerate().fold(0, |acc, (bit, &c)| {
                    acc | u64::from(c >= COST_INSCRIBED) << bit
                });
            }
        }

        // The refresh pass is data-parallel over cell stripes (the
        // paper's Fig. 5 parallelizes the costmap update together with
        // trajectory scoring); a serial residue covers the sweep
        // dependencies of the distance transform.
        let total = n as f64 * cost::CYCLES_PER_REFRESH_CELL;
        meter.serial_ops(1, total * 0.1);
        meter.parallel_ops(1, total * 0.9, 512);
    }
}

/// `min` of two distances. Every distance is a finite non-negative
/// `f32`, so a compare-select picks the same operand as `f32::min`
/// without its NaN handling, and vectorizes.
#[inline(always)]
fn min(a: f32, b: f32) -> f32 {
    if b < a {
        b
    } else {
        a
    }
}

/// One chamfer step from the finished neighbouring row `adj` (above on
/// the forward sweep, below on the backward one) into `cur`: the
/// straight neighbour costs `orth`, the two diagonal ones `diag`. No
/// cell of `cur` depends on another, so each pass vectorizes.
fn relax_from_row(cur: &mut [f32], adj: &[f32], orth: f32, diag: f32) {
    let w = cur.len();
    for (d, &a) in cur.iter_mut().zip(adj) {
        *d = min(*d, a + orth);
    }
    if w > 1 {
        for (d, &a) in cur[1..].iter_mut().zip(&adj[..w - 1]) {
            *d = min(*d, a + diag);
        }
        for (d, &a) in cur[..w - 1].iter_mut().zip(&adj[1..w]) {
            *d = min(*d, a + diag);
        }
    }
}

/// Inflated costs already computed in one master pass, keyed by the
/// exact bits of the distance. Direct-mapped: a slot holds the last
/// distance that hashed to it, and starts out as a NaN pattern that no
/// distance has.
struct InflationMemo {
    keys: [u32; 64],
    costs: [u8; 64],
}

impl InflationMemo {
    fn new() -> Self {
        InflationMemo {
            keys: [u32::MAX; 64],
            costs: [0; 64],
        }
    }

    fn cost(&mut self, d: f32, inflated: impl FnOnce(f32) -> u8) -> u8 {
        let bits = d.to_bits();
        let slot = (bits.wrapping_mul(0x9E37_79B9) >> 26) as usize;
        if self.keys[slot] != bits {
            self.keys[slot] = bits;
            self.costs[slot] = inflated(d);
        }
        self.costs[slot]
    }
}

/// Mask words per grid row: each row starts on a word boundary.
fn blocked_words_per_row(dims: &GridDims) -> usize {
    (dims.width as usize).div_ceil(64)
}

/// Mask words for the whole grid.
fn blocked_words(dims: &GridDims) -> usize {
    blocked_words_per_row(dims) * dims.height as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn empty_map(w: u32, h: u32) -> MapMsg {
        MapMsg {
            stamp: SimTime::EPOCH,
            dims: GridDims::new(w, h, 0.05, Point2::ORIGIN),
            cells: vec![MapMsg::FREE; (w * h) as usize],
        }
    }

    fn map_with_block(w: u32, h: u32) -> MapMsg {
        let mut m = empty_map(w, h);
        // Block at cells cols 40..=44, rows 40..=44 (world ≈ 2.0–2.25).
        for row in 40..=44 {
            for col in 40..=44 {
                m.cells[(row * w + col) as usize] = MapMsg::OCCUPIED;
            }
        }
        m
    }

    #[test]
    fn static_obstacles_are_lethal_and_inflated() {
        let m = map_with_block(100, 100);
        let cm = Costmap::from_map(CostmapConfig::default(), &m);
        assert_eq!(cm.cost(GridIndex::new(42, 42)), COST_LETHAL);
        // A cell just outside the block but within the inscribed
        // radius is inscribed.
        assert_eq!(cm.cost(GridIndex::new(45, 42)), COST_INSCRIBED);
        // Within the inflation radius: nonzero but traversable.
        let c = cm.cost(GridIndex::new(49, 42));
        assert!(c > 0 && c < COST_INSCRIBED, "cost {c}");
        // Far away: free.
        assert_eq!(cm.cost(GridIndex::new(90, 90)), 0);
    }

    #[test]
    fn inflation_cost_decreases_with_distance() {
        let m = map_with_block(100, 100);
        let cm = Costmap::from_map(CostmapConfig::default(), &m);
        let mut prev = COST_LETHAL;
        for col in 45..55 {
            let c = cm.cost(GridIndex::new(col, 42));
            assert!(
                c <= prev,
                "cost must not increase moving away: {c} > {prev}"
            );
            prev = c;
        }
    }

    #[test]
    fn out_of_bounds_is_lethal() {
        let cm = Costmap::from_map(CostmapConfig::default(), &empty_map(20, 20));
        assert_eq!(cm.cost(GridIndex::new(-1, 5)), COST_LETHAL);
        assert_eq!(cm.cost(GridIndex::new(5, 999)), COST_LETHAL);
    }

    #[test]
    fn scan_marks_new_obstacles() {
        let m = empty_map(100, 100);
        let mut cm = Costmap::from_map(CostmapConfig::default(), &m);
        // Robot at (1, 2.5) facing +x; beam 0 hits at 1 m → (2, 2.5).
        let scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 2.0 * PI / 4.0,
            range_max: 3.5,
            ranges: vec![1.0, 3.5, 3.5, 3.5],
        };
        let mut meter = WorkMeter::new();
        cm.update(&m, Pose2D::new(1.0, 2.5, 0.0), &scan, &mut meter);
        let hit = cm.dims().world_to_grid(Point2::new(2.0, 2.5));
        assert_eq!(cm.cost(hit), COST_LETHAL);
        assert!(meter.finish().total_cycles() > 0.0);
    }

    #[test]
    fn ray_clearing_removes_stale_marks() {
        let m = empty_map(100, 100);
        let mut cm = Costmap::from_map(CostmapConfig::default(), &m);
        let pose = Pose2D::new(1.0, 2.5, 0.0);
        let hit_scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 2.0 * PI / 4.0,
            range_max: 3.5,
            ranges: vec![1.0, 3.5, 3.5, 3.5],
        };
        let clear_scan = LaserScan {
            ranges: vec![2.0, 3.5, 3.5, 3.5],
            ..hit_scan.clone()
        };
        let mut meter = WorkMeter::new();
        cm.update(&m, pose, &hit_scan, &mut meter);
        let old_hit = cm.dims().world_to_grid(Point2::new(2.0, 2.5));
        assert_eq!(cm.cost(old_hit), COST_LETHAL);
        // Next scan sees through that cell: it must clear.
        cm.update(&m, pose, &clear_scan, &mut meter);
        assert!(cm.cost(old_hit) < COST_INSCRIBED, "stale mark should clear");
    }

    #[test]
    fn unknown_cells_stay_unknown_until_observed() {
        let mut m = empty_map(60, 60);
        m.cells.iter_mut().for_each(|c| *c = MapMsg::UNKNOWN);
        let cm = Costmap::from_map(CostmapConfig::default(), &m);
        assert_eq!(cm.cost(GridIndex::new(30, 30)), COST_UNKNOWN);
        assert!(!cm.traversable(GridIndex::new(30, 30)));
    }

    #[test]
    fn footprint_collision_detection() {
        let m = map_with_block(100, 100);
        let cm = Costmap::from_map(CostmapConfig::default(), &m);
        // Block spans roughly [2.0, 2.25]².
        assert!(cm.footprint_collides(Point2::new(2.1, 2.1), 0.11));
        assert!(cm.footprint_collides(Point2::new(2.35, 2.1), 0.11));
        assert!(!cm.footprint_collides(Point2::new(4.0, 4.0), 0.11));
    }

    /// Is the mask bit of `idx` set?
    fn mask_bit(cm: &Costmap, idx: GridIndex) -> bool {
        let wpr = blocked_words_per_row(&cm.dims);
        let word = cm.blocked[idx.row as usize * wpr + idx.col as usize / 64];
        word >> (idx.col % 64) & 1 == 1
    }

    /// Every mask bit agrees with the master grid, and the padding
    /// bits past each row's last cell are clear.
    fn assert_mask_matches_master(cm: &Costmap) {
        let (w, h) = (cm.dims.width as i32, cm.dims.height as i32);
        for row in 0..h {
            for col in 0..w {
                let idx = GridIndex::new(col, row);
                assert_eq!(
                    mask_bit(cm, idx),
                    cm.cost(idx) >= COST_INSCRIBED,
                    "mask bit at ({col}, {row})"
                );
            }
        }
        let wpr = blocked_words_per_row(&cm.dims);
        let pad = wpr * 64 - w as usize;
        if pad > 0 {
            for row in 0..h as usize {
                let last = cm.blocked[row * wpr + wpr - 1];
                assert_eq!(last >> (64 - pad), 0, "padding bits of row {row}");
            }
        }
    }

    #[test]
    fn mask_word_counts_round_each_row_up() {
        let dims = |w| GridDims::new(w, 3, 0.05, Point2::ORIGIN);
        assert_eq!(blocked_words_per_row(&dims(1)), 1);
        assert_eq!(blocked_words_per_row(&dims(64)), 1);
        assert_eq!(blocked_words_per_row(&dims(65)), 2);
        assert_eq!(blocked_words_per_row(&dims(130)), 3);
        assert_eq!(blocked_words(&dims(130)), 9);
    }

    #[test]
    fn blocked_mask_matches_master_after_construction() {
        // 130 wide: three words per row, the last one padded.
        let mut m = empty_map(130, 40);
        for (col, row) in [(0, 0), (63, 10), (64, 10), (127, 20), (129, 39)] {
            m.cells[row * 130 + col] = MapMsg::OCCUPIED;
        }
        let cm = Costmap::from_map(CostmapConfig::default(), &m);
        assert_mask_matches_master(&cm);
        assert!(mask_bit(&cm, GridIndex::new(63, 10)));
        assert!(mask_bit(&cm, GridIndex::new(64, 10)));
        assert!(!mask_bit(&cm, GridIndex::new(100, 30)));
    }

    #[test]
    fn empty_costmap_starts_with_a_clear_mask() {
        let cm = Costmap::empty(
            CostmapConfig::default(),
            GridDims::new(70, 30, 0.05, Point2::ORIGIN),
        );
        assert!(cm.blocked.iter().all(|&w| w == 0));
        assert_mask_matches_master(&cm);
        // Unknown cells do not collide; only the grid edge does.
        assert!(!cm.footprint_collides(Point2::new(1.75, 0.75), 0.2));
        assert!(cm.footprint_collides(Point2::new(0.05, 0.75), 0.2));
    }

    #[test]
    fn blocked_mask_follows_marks_and_clears() {
        let m = empty_map(100, 100);
        let mut cm = Costmap::from_map(CostmapConfig::default(), &m);
        let pose = Pose2D::new(1.0, 2.5, 0.0);
        let scan = |r: f64| LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 2.0 * PI / 4.0,
            range_max: 3.5,
            ranges: vec![r, 3.5, 3.5, 3.5],
        };
        let hit = cm.dims().world_to_grid(Point2::new(2.0, 2.5));
        let mut meter = WorkMeter::new();
        cm.update(&m, pose, &scan(1.0), &mut meter);
        assert!(mask_bit(&cm, hit));
        assert_mask_matches_master(&cm);
        cm.update(&m, pose, &scan(2.0), &mut meter);
        assert!(!mask_bit(&cm, hit), "a cleared mark must clear its bit");
        assert_mask_matches_master(&cm);
    }

    #[test]
    fn set_static_map_reaches_the_mask_on_the_next_refresh() {
        let dims = GridDims::new(80, 80, 0.05, Point2::ORIGIN);
        let mut cm = Costmap::empty(CostmapConfig::default(), dims);
        let known = map_with_block(80, 80);
        cm.set_static_map(&known);
        // The master grid (and so the mask) changes only on refresh.
        assert!(!cm.footprint_collides(Point2::new(2.1, 2.1), 0.11));
        let scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: PI,
            range_max: 3.5,
            ranges: vec![3.5, 3.5],
        };
        cm.update(
            &known,
            Pose2D::new(0.5, 3.5, 0.0),
            &scan,
            &mut WorkMeter::new(),
        );
        assert_mask_matches_master(&cm);
        assert!(cm.footprint_collides(Point2::new(2.1, 2.1), 0.11));
    }

    #[test]
    fn footprint_sees_cells_on_both_sides_of_a_word_boundary() {
        // A one-cell wall at column 63 or 64 (bit 63 of word 0, bit 0
        // of word 1), with the inscribed zone shrunk to the wall.
        let cfg = CostmapConfig {
            inscribed_radius: 0.01,
            ..CostmapConfig::default()
        };
        for wall in [63usize, 64] {
            let mut m = empty_map(130, 40);
            m.cells[20 * 130 + wall] = MapMsg::OCCUPIED;
            let cm = Costmap::from_map(cfg.clone(), &m);
            let centre = cm.dims().grid_to_world(GridIndex::new(wall as i32, 20));
            assert!(cm.footprint_collides(centre, 0.05), "wall at {wall}");
            let beside = Point2::new(centre.x + 0.5, centre.y);
            assert!(!cm.footprint_collides(beside, 0.05), "wall at {wall}");
        }
    }

    #[test]
    fn footprint_collides_wherever_the_box_crosses_the_grid_edge() {
        let cm = Costmap::from_map(CostmapConfig::default(), &empty_map(60, 40));
        let (w, h) = (60.0 * 0.05, 40.0 * 0.05);
        for p in [
            Point2::new(0.02, 1.0),
            Point2::new(w - 0.02, 1.0),
            Point2::new(1.5, 0.02),
            Point2::new(1.5, h - 0.02),
        ] {
            assert!(cm.footprint_collides(p, 0.1), "probe {p:?}");
        }
        assert!(!cm.footprint_collides(Point2::new(1.5, 1.0), 0.1));
    }

    #[test]
    fn work_scales_with_grid_size() {
        let small = empty_map(50, 50);
        let large = empty_map(200, 200);
        let mut cs = Costmap::from_map(CostmapConfig::default(), &small);
        let mut cl = Costmap::from_map(CostmapConfig::default(), &large);
        let scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 0.5,
            range_max: 3.5,
            ranges: vec![1.0; 12],
        };
        let mut ms = WorkMeter::new();
        let mut ml = WorkMeter::new();
        cs.update(&small, Pose2D::new(1.2, 1.2, 0.0), &scan, &mut ms);
        cl.update(&large, Pose2D::new(1.2, 1.2, 0.0), &scan, &mut ml);
        assert!(ml.finish().total_cycles() > 10.0 * ms.finish().total_cycles());
    }

    /// The `Work` of one update on the lab-scale map (12×10 m at 5 cm)
    /// with a 360-beam scan.
    fn lab_update_work() -> Work {
        let m = empty_map(240, 200);
        let mut cm = Costmap::from_map(CostmapConfig::default(), &m);
        let scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 2.0 * PI / 360.0,
            range_max: 3.5,
            ranges: vec![2.0; 360],
        };
        let mut meter = WorkMeter::new();
        cm.update(&m, Pose2D::new(6.0, 5.0, 0.0), &scan, &mut meter);
        meter.finish()
    }

    #[test]
    fn table2_costmap_cycle_anchor() {
        // One update should cost ≈ 0.86/5 ≈ 0.17 Gcycles (Table II,
        // CostmapGen with a map).
        let g = lab_update_work().total_cycles() / 1e9;
        assert!((0.12..0.25).contains(&g), "per-update Gcycles {g}");
    }

    #[test]
    fn lab_update_work_is_pinned_to_the_bit() {
        // Virtual time follows these cycles, so a kernel rewrite must
        // leave the recorded op counts exactly as they are.
        let work = lab_update_work();
        assert_eq!(work.total_cycles().to_bits(), 0x41a2_ccd2_3000_0000);
        assert_eq!(work.serial_cycles.to_bits(), 0x4172_9091_8000_0000);
        assert_eq!(work.parallel_items, 512);
    }

    #[test]
    #[should_panic(expected = "map geometry must match")]
    fn update_rejects_a_map_with_other_dims_and_the_same_cell_count() {
        let mut cm = Costmap::from_map(CostmapConfig::default(), &empty_map(120, 100));
        let scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: PI,
            range_max: 3.5,
            ranges: vec![1.0, 1.0],
        };
        let transposed = empty_map(100, 120);
        cm.update(
            &transposed,
            Pose2D::new(2.0, 2.0, 0.0),
            &scan,
            &mut WorkMeter::new(),
        );
    }

    /// Costs along a one-cell-wide strip of `len` cells, laid out as a
    /// row (`len`×1) or a column (1×`len`), with the cell at `wall`
    /// occupied.
    fn strip_costs(len: u32, wall: usize, as_row: bool) -> Vec<u8> {
        let (w, h) = if as_row { (len, 1) } else { (1, len) };
        let mut m = empty_map(w, h);
        m.cells[wall] = MapMsg::OCCUPIED;
        let cm = Costmap::from_map(CostmapConfig::default(), &m);
        (0..len as i32)
            .map(|i| {
                let idx = if as_row {
                    GridIndex::new(i, 0)
                } else {
                    GridIndex::new(0, i)
                };
                cm.cost(idx)
            })
            .collect()
    }

    #[test]
    fn inflation_falls_off_monotonically_along_single_row_and_column_grids() {
        // The row takes only the in-row chain, the column only the
        // row-neighbour pass: both must spread cost the same way.
        let (len, wall) = (40, 12);
        let row = strip_costs(len, wall, true);
        assert_eq!(row, strip_costs(len, wall, false));
        assert_eq!(row[wall], COST_LETHAL);
        assert_eq!(row[wall - 1], COST_INSCRIBED);
        assert_eq!(row[wall + 1], COST_INSCRIBED);
        for side in [
            &row[wall..],
            &row[..=wall].iter().rev().copied().collect::<Vec<_>>()[..],
        ] {
            assert!(side.windows(2).all(|p| p[1] <= p[0]), "{side:?}");
            assert!(
                side.iter().any(|&c| c > 0 && c < COST_INSCRIBED),
                "{side:?}"
            );
            assert_eq!(*side.last().unwrap(), 0, "{side:?}");
        }
        // A single cell.
        assert_eq!(strip_costs(1, 0, true), vec![COST_LETHAL]);
        assert_eq!(strip_costs(1, 0, false), vec![COST_LETHAL]);
    }
}
