//! Property-based tests for the navigation stack: planner optimality
//! and safety, costmap invariants, DWA feasibility guarantees.

use lgv_nav::costmap::{
    cost, Costmap, CostmapConfig, COST_FREE_MAX, COST_INSCRIBED, COST_LETHAL, COST_UNKNOWN,
};
use lgv_nav::dwa::{DwaConfig, DwaPlanner};
use lgv_nav::frontier::FrontierExplorer;
use lgv_nav::global_planner::{GlobalPlanner, PlannerAlgorithm, PlannerConfig};
use lgv_nav::velocity_mux::{MuxConfig, VelocityMux};
use lgv_types::prelude::*;
use proptest::prelude::*;

/// An open map with a few random rectangular obstacles.
fn obstacle_map(seed: u64, blocks: usize) -> MapMsg {
    let dims = GridDims::new(120, 120, 0.05, Point2::ORIGIN);
    let mut cells = vec![MapMsg::FREE; dims.len()];
    let mut rng = SimRng::seed_from_u64(seed);
    for _ in 0..blocks {
        let cx = rng.index(80) + 20;
        let cy = rng.index(80) + 20;
        let w = rng.index(8) + 2;
        let h = rng.index(8) + 2;
        for row in cy..(cy + h).min(120) {
            for col in cx..(cx + w).min(120) {
                cells[row * 120 + col] = MapMsg::OCCUPIED;
            }
        }
    }
    MapMsg {
        stamp: SimTime::EPOCH,
        dims,
        cells,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn astar_never_beats_dijkstra_by_much(seed in 0u64..200, blocks in 0usize..6) {
        // A* with an admissible heuristic and identical edge costs must
        // return (near-)identical path lengths to Dijkstra.
        let map = obstacle_map(seed, blocks);
        let cm = Costmap::from_map(CostmapConfig::default(), &map);
        let start = Point2::new(0.5, 0.5);
        let goal = Point2::new(5.5, 5.5);
        let d = GlobalPlanner::new(PlannerConfig {
            algorithm: PlannerAlgorithm::Dijkstra,
            ..Default::default()
        })
        .plan(&cm, start, goal, SimTime::EPOCH);
        let a = GlobalPlanner::new(PlannerConfig {
            algorithm: PlannerAlgorithm::AStar,
            ..Default::default()
        })
        .plan(&cm, start, goal, SimTime::EPOCH);
        match (d, a) {
            (Ok(d), Ok(a)) => {
                // Shortcutting adds small variation; lengths agree within 10 %.
                let ratio = a.path.length() / d.path.length().max(1e-9);
                prop_assert!((0.85..1.15).contains(&ratio), "ratio {ratio}");
                prop_assert!(a.expansions <= d.expansions);
            }
            (Err(_), Err(_)) => {}
            (d, a) => prop_assert!(false, "planners disagree on reachability: {d:?} vs {a:?}"),
        }
    }

    #[test]
    fn planned_paths_avoid_lethal_cells(seed in 0u64..200, blocks in 0usize..6) {
        let map = obstacle_map(seed, blocks);
        let cm = Costmap::from_map(CostmapConfig::default(), &map);
        let p = GlobalPlanner::new(PlannerConfig::default());
        if let Ok(r) = p.plan(&cm, Point2::new(0.5, 0.5), Point2::new(5.5, 5.5), SimTime::EPOCH) {
            for w in r.path.waypoints.windows(2) {
                for cell in GridRay::new(cm.dims(), w[0], w[1]) {
                    prop_assert!(
                        cm.cost(cell) < COST_INSCRIBED,
                        "path segment crosses lethal/inscribed cell {cell:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn costmap_costs_bounded_and_lethal_preserved(seed in 0u64..100, blocks in 1usize..6) {
        let map = obstacle_map(seed, blocks);
        let cm = Costmap::from_map(CostmapConfig::default(), &map);
        for (i, &c) in map.cells.iter().enumerate() {
            let idx = cm.dims().unflat(i);
            prop_assert!(cm.cost(idx) <= COST_LETHAL);
            if c == MapMsg::OCCUPIED {
                prop_assert_eq!(cm.cost(idx), COST_LETHAL, "static obstacle must stay lethal");
            }
        }
    }

    #[test]
    fn dwa_never_commands_into_collision(
        seed in 0u64..100, px in 1.0f64..5.0, py in 1.0f64..5.0, th in -3.0f64..3.0,
    ) {
        let map = obstacle_map(seed, 4);
        let cm = Costmap::from_map(CostmapConfig::default(), &map);
        if cm.footprint_collides(Point2::new(px, py), 0.12) {
            return Ok(());
        }
        let pose = Pose2D::new(px, py, th);
        let mut dwa = DwaPlanner::new(DwaConfig { samples: 120, ..Default::default() });
        let path = PathMsg {
            stamp: SimTime::EPOCH,
            waypoints: vec![pose.position(), Point2::new(5.5, 5.5)],
        };
        let r = dwa.compute(&cm, pose, &path, Point2::new(5.5, 5.5));
        if r.twist.linear > 0.0 {
            // Forward-simulate the chosen command over the DWA horizon:
            // it must stay collision-free (that's the feasibility test
            // the planner itself applied).
            let mut p = pose;
            for _ in 0..16 {
                p = p.integrate(r.twist, 0.1);
                prop_assert!(
                    !cm.footprint_collides(p.position(), 0.10),
                    "commanded trajectory collides at {p:?}"
                );
            }
        }
    }

    #[test]
    fn mux_always_returns_a_valid_command(
        cmds in proptest::collection::vec((0u64..5000, 0u8..3, -1.0f64..1.0), 0..30),
        query in 0u64..6000,
    ) {
        let mut mux = VelocityMux::new(MuxConfig::default());
        let mut stamps: Vec<u64> = cmds.iter().map(|c| c.0).collect();
        stamps.sort_unstable();
        for (stamp, src, v) in &cmds {
            let source = match src {
                0 => VelocitySource::Navigation,
                1 => VelocitySource::Joystick,
                _ => VelocitySource::SafetyController,
            };
            mux.submit(VelocityCmd {
                stamp: SimTime::EPOCH + Duration::from_millis(*stamp),
                twist: Twist::new(*v, 0.0),
                source,
            });
        }
        let out = mux.select(SimTime::EPOCH + Duration::from_millis(query));
        prop_assert!(out.twist.linear.is_finite());
        // If it returned a non-stop command, that command must be fresh.
        if !out.twist.is_stop() {
            let age = (SimTime::EPOCH + Duration::from_millis(query)).saturating_since(out.stamp);
            prop_assert!(age <= Duration::from_millis(600));
        }
    }

    #[test]
    fn frontier_goal_is_always_on_a_frontier_cluster(seed in 0u64..100) {
        // Free disc of known space around a random centre; goal must
        // lie near the known/unknown boundary.
        let dims = GridDims::new(80, 80, 0.1, Point2::ORIGIN);
        let mut cells = vec![MapMsg::UNKNOWN; dims.len()];
        let mut rng = SimRng::seed_from_u64(seed);
        let cx = 20 + rng.index(40) as i32;
        let cy = 20 + rng.index(40) as i32;
        let r = 8 + rng.index(8) as i32;
        for row in 0..80 {
            for col in 0..80 {
                let dx = col - cx;
                let dy = row - cy;
                if dx * dx + dy * dy <= r * r {
                    cells[(row * 80 + col) as usize] = MapMsg::FREE;
                }
            }
        }
        let map = MapMsg { stamp: SimTime::EPOCH, dims, cells };
        let centre = dims.grid_to_world(GridIndex::new(cx, cy));
        let out = FrontierExplorer::default().select_goal(&map, centre, SimTime::EPOCH);
        if let Some(goal) = out.goal {
            let dist = goal.target.distance(centre);
            // Frontier ring lies at radius r·0.1 m ± a cell or two.
            prop_assert!(
                (dist - r as f64 * 0.1).abs() < 0.4,
                "goal {dist} vs ring {}",
                r as f64 * 0.1
            );
        }
    }
}

// ---------------------------------------------------------------------
// Equivalence of the DWA rollout kernel with its straightforward form.
//
// The planner shares each ω column's heading sequence across the
// column's linear velocities and answers footprint checks from the
// costmap's blocked-cell mask. Both are exact rewrites: the references
// below are the per-cell footprint loop and the `Pose2D::integrate`
// rollout they replaced, and the planner must agree with them bit for
// bit.
// ---------------------------------------------------------------------

/// A map of `w × h` cells at 5 cm with random rectangular obstacles,
/// single occupied cells at `speckle_pct`, and an `unknown_pct` share of
/// unknown cells.
fn random_map(
    seed: u64,
    (w, h): (u32, u32),
    blocks: usize,
    speckle_pct: usize,
    unknown_pct: usize,
) -> MapMsg {
    let dims = GridDims::new(w, h, 0.05, Point2::ORIGIN);
    let (wu, hu) = (w as usize, h as usize);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut cells: Vec<i8> = (0..dims.len())
        .map(|_| {
            if rng.index(100) < speckle_pct {
                MapMsg::OCCUPIED
            } else if rng.index(100) < unknown_pct {
                MapMsg::UNKNOWN
            } else {
                MapMsg::FREE
            }
        })
        .collect();
    for _ in 0..blocks {
        let cx = rng.index(wu);
        let cy = rng.index(hu);
        let bw = rng.index(8) + 1;
        let bh = rng.index(8) + 1;
        for row in cy..(cy + bh).min(hu) {
            for col in cx..(cx + bw).min(wu) {
                cells[row * wu + col] = MapMsg::OCCUPIED;
            }
        }
    }
    MapMsg {
        stamp: SimTime::EPOCH,
        dims,
        cells,
    }
}

/// A 36-beam scan with ranges drawn from `seed` (some beyond range).
fn random_scan(seed: u64) -> LaserScan {
    let mut rng = SimRng::seed_from_u64(seed);
    LaserScan {
        stamp: SimTime::EPOCH,
        angle_min: 0.0,
        angle_increment: std::f64::consts::TAU / 36.0,
        range_max: 3.5,
        ranges: (0..36).map(|_| rng.uniform_range(0.1, 4.0)).collect(),
    }
}

/// The per-cell footprint test: every cell of the disc's bounding box,
/// out-of-bounds cells lethal (as `cost` must report them).
fn reference_footprint_collides(
    dims: &GridDims,
    cost: impl Fn(GridIndex) -> u8,
    p: Point2,
    r: f64,
) -> bool {
    let lo = dims.world_to_grid(Point2::new(p.x - r, p.y - r));
    let hi = dims.world_to_grid(Point2::new(p.x + r, p.y + r));
    for row in lo.row..=hi.row {
        for col in lo.col..=hi.col {
            let idx = GridIndex::new(col, row);
            if cost(idx) >= COST_INSCRIBED {
                let c = dims.grid_to_world(idx);
                if c.distance(p) <= r + dims.resolution * 0.71 {
                    return true;
                }
            }
        }
    }
    false
}

/// A point whose footprint box lies inside the grid (`edge == 0`),
/// straddles one of its four edges (`edge` 1–4: left, right, bottom,
/// top), or straddles the first 64-cell mask-word boundary (`edge` 5,
/// when the grid is wider than 64 cells). `u`, `t` ∈ [0, 1) place it
/// along and across the line.
fn probe_point(dims: &GridDims, edge: usize, u: f64, t: f64) -> Point2 {
    let (wx, wy) = dims.world_size();
    let across = -0.35 + 0.7 * t;
    match edge {
        1 => Point2::new(across, u * wy),
        2 => Point2::new(wx + across, u * wy),
        3 => Point2::new(u * wx, across),
        4 => Point2::new(u * wx, wy + across),
        5 if dims.width > 64 => Point2::new(64.0 * dims.resolution + across, u * wy),
        _ => Point2::new(u * wx, t * wy),
    }
}

/// The DWA planner as it was written before the rollout kernel shared
/// heading tables: serial scoring, one `Pose2D::integrate` per step and
/// the per-cell footprint test.
fn reference_compute(
    cfg: &DwaConfig,
    last: Twist,
    cm: &Costmap,
    pose: Pose2D,
    path: &PathMsg,
    goal: Point2,
) -> lgv_nav::dwa::DwaResult {
    let dt_cycle = 0.2;
    let v_lo = (last.linear - cfg.max_lin_accel * dt_cycle).max(0.0);
    let v_hi = (last.linear + cfg.max_lin_accel * dt_cycle).min(cfg.max_linear);
    let w_lo = (last.angular - cfg.max_ang_accel * dt_cycle).max(-cfg.max_angular);
    let w_hi = (last.angular + cfg.max_ang_accel * dt_cycle).min(cfg.max_angular);
    let nv = ((cfg.samples as f64 / 3.0).sqrt().round() as u32).max(2);
    let nw = (cfg.samples / nv).max(2);
    let target = reference_carrot(path, pose.position(), cfg.lookahead, goal);
    let steps = (cfg.sim_horizon / cfg.sim_dt).round() as u32;

    let mut best: Option<(f64, f64, f64)> = None;
    let (mut evaluated, mut discarded, mut total_steps) = (0u32, 0u32, 0u64);
    for i in 0..nv {
        let v = v_lo + (v_hi - v_lo) * i as f64 / (nv - 1) as f64;
        for j in 0..nw {
            let w = w_lo + (w_hi - w_lo) * j as f64 / (nw - 1) as f64;
            evaluated += 1;
            let mut p = pose;
            let mut min_clearance = f64::INFINITY;
            let mut feasible = true;
            for _ in 0..steps {
                p = p.integrate(Twist::new(v, w), cfg.sim_dt);
                total_steps += 1;
                if reference_footprint_collides(
                    cm.dims(),
                    |i| cm.cost(i),
                    p.position(),
                    cfg.footprint_radius,
                ) {
                    feasible = false;
                    break;
                }
                let c = cm.cost(cm.dims().world_to_grid(p.position()));
                min_clearance = min_clearance.min(1.0 - c.min(253) as f64 / 253.0);
            }
            if !feasible {
                discarded += 1;
                continue;
            }
            let end = p.position();
            let progress = pose.position().distance(target) - end.distance(target);
            let score = -cfg.w_path * reference_path_distance(path, end)
                + cfg.w_goal * progress
                + cfg.w_clear * min_clearance.clamp(0.0, 1.0)
                + cfg.w_speed * (v / cfg.max_linear.max(1e-9));
            // `max_by(total_cmp)` keeps the last of equal maxima.
            if best.is_none_or(|b| score.total_cmp(&b.2).is_ge()) {
                best = Some((v, w, score));
            }
        }
    }
    let twist = match best {
        Some((v, w, _)) => Twist::new(v, w),
        None => Twist::new(0.0, cfg.max_angular * 0.3),
    };
    lgv_nav::dwa::DwaResult {
        twist,
        score: best.map_or(f64::NEG_INFINITY, |b| b.2),
        evaluated,
        discarded,
        work: Work::with_parallel(
            lgv_nav::dwa::cost::CYCLES_SERIAL_BASE,
            total_steps as f64 * lgv_nav::dwa::cost::CYCLES_PER_TRAJ_STEP,
            evaluated,
        ),
    }
}

fn reference_carrot(path: &PathMsg, p: Point2, lookahead: f64, fallback: Point2) -> Point2 {
    let wps = &path.waypoints;
    if wps.len() < 2 {
        return fallback;
    }
    let mut best = (0usize, wps[0], f64::INFINITY);
    for i in 0..wps.len() - 1 {
        let (a, b) = (wps[i], wps[i + 1]);
        let ab = b - a;
        let denom = ab.norm_sq();
        let t = if denom < 1e-12 {
            0.0
        } else {
            ((p - a).dot(ab) / denom).clamp(0.0, 1.0)
        };
        let q = a.lerp(b, t);
        let d = p.distance(q);
        if d < best.2 {
            best = (i, q, d);
        }
    }
    let (mut i, mut cur, _) = best;
    let mut remaining = lookahead;
    loop {
        let seg_end = wps[i + 1];
        let d = cur.distance(seg_end);
        if remaining <= d || d < 1e-12 {
            if d < 1e-12 {
                return seg_end;
            }
            return cur.lerp(seg_end, remaining / d);
        }
        remaining -= d;
        cur = seg_end;
        i += 1;
        if i + 1 >= wps.len() {
            return *wps.last().unwrap();
        }
    }
}

fn reference_path_distance(path: &PathMsg, p: Point2) -> f64 {
    let wps = &path.waypoints;
    if wps.is_empty() {
        return 0.0;
    }
    if wps.len() == 1 {
        return p.distance(wps[0]);
    }
    wps.windows(2)
        .map(|seg| {
            let (a, b) = (seg[0], seg[1]);
            let ab = b - a;
            let denom = ab.norm_sq();
            if denom < 1e-12 {
                return p.distance(a);
            }
            let t = ((p - a).dot(ab) / denom).clamp(0.0, 1.0);
            p.distance(a.lerp(b, t))
        })
        .fold(f64::INFINITY, f64::min)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn footprint_collides_matches_per_cell_reference(
        seed in 0u64..10_000,
        (wi, from_map, thin) in (0usize..4, any::<bool>(), any::<bool>()),
        (blocks, speckle_pct, unknown_pct) in (0usize..40, 0usize..8, 0usize..40),
        ops in proptest::collection::vec((0usize..3, 0.0f64..1.0, 0.0f64..1.0, 0u64..1000), 0..5),
        probes in proptest::collection::vec((0usize..6, 0.0f64..1.0, 0.0f64..1.0, 0.05f64..0.3), 300..400),
    ) {
        // Widths below, at and past a 64-cell word, and two words plus.
        let size = [(40, 50), (64, 64), (120, 90), (130, 70)][wi];
        let map = random_map(seed, size, blocks, speckle_pct, unknown_pct);
        // A sub-cell inscribed radius blocks lethal cells only, so
        // single blocked cells sit next to free ones.
        let cfg = CostmapConfig {
            inscribed_radius: if thin { 0.01 } else { 0.11 },
            ..Default::default()
        };
        let mut cm = if from_map {
            Costmap::from_map(cfg, &map)
        } else {
            Costmap::empty(cfg, map.dims)
        };
        let mut known = map.clone();
        let (wx, wy) = map.dims.world_size();
        let mut meter = WorkMeter::new();
        for &(kind, u, t, s) in &ops {
            if kind == 0 {
                known = random_map(seed ^ s, size, blocks, speckle_pct, unknown_pct);
                cm.set_static_map(&known);
            } else {
                let pose = Pose2D::new(u * wx, t * wy, s as f64 * 0.01);
                cm.update(&known, pose, &random_scan(s), &mut meter);
            }
        }
        for &(edge, u, t, r) in &probes {
            let p = probe_point(cm.dims(), edge, u, t);
            prop_assert_eq!(
                cm.footprint_collides(p, r),
                reference_footprint_collides(cm.dims(), |i| cm.cost(i), p, r),
                "footprint at {:?} radius {}", p, r
            );
        }
    }

    #[test]
    fn dwa_compute_matches_reference_rollout(
        seed in 0u64..10_000,
        blocks in 0usize..30,
        (px, py) in (0.05f64..5.95, 0.05f64..5.95),
        (heading, th, near_pi) in (0usize..4, -3.2f64..3.2, -0.05f64..0.05),
        si in 0usize..3,
        threads in 1usize..3,
        calls in 1usize..4,
    ) {
        let map = random_map(seed, (120, 120), blocks, 0, 0);
        let mut cm = Costmap::from_map(CostmapConfig::default(), &map);
        let mut meter = WorkMeter::new();
        // Headings near ±π make the rollout cross the angle wrap; a
        // heading at the first path corner favours the straight column.
        let via = Point2::new(3.0, 1.0);
        let th = match heading {
            0 => std::f64::consts::PI + near_pi,
            1 => -std::f64::consts::PI + near_pi,
            2 => (via.y - py).atan2(via.x - px),
            _ => th,
        };
        let mut pose = Pose2D::new(px, py, th);
        cm.update(&map, pose, &random_scan(seed), &mut meter);
        let samples = [12, 600, 1000][si];
        let threads = [1, 4][threads - 1];
        let mut dwa = DwaPlanner::new(DwaConfig { samples, threads, ..Default::default() });
        let goal = Point2::new(5.5, 5.5);
        let path = PathMsg {
            stamp: SimTime::EPOCH,
            waypoints: vec![pose.position(), via, goal],
        };
        // The first call opens the window around a stopped robot, so
        // one ω column is the straight-line (ω ≈ 0) branch.
        let mut last = Twist::STOP;
        for call in 0..calls {
            let got = dwa.compute(&cm, pose, &path, goal);
            let want = reference_compute(dwa.config(), last, &cm, pose, &path, goal);
            prop_assert_eq!(got.twist.linear.to_bits(), want.twist.linear.to_bits(), "call {}", call);
            prop_assert_eq!(got.twist.angular.to_bits(), want.twist.angular.to_bits(), "call {}", call);
            prop_assert_eq!(got.score.to_bits(), want.score.to_bits(), "call {}", call);
            prop_assert_eq!(got.evaluated, want.evaluated);
            prop_assert_eq!(got.discarded, want.discarded);
            prop_assert_eq!(got.work.serial_cycles.to_bits(), want.work.serial_cycles.to_bits());
            prop_assert_eq!(got.work.parallel_cycles.to_bits(), want.work.parallel_cycles.to_bits());
            prop_assert_eq!(got.work.parallel_items, want.work.parallel_items);
            last = want.twist;
            pose = pose.integrate(last, 0.2);
        }
    }
}

// ---------------------------------------------------------------------
// Equivalence of the costmap refresh kernel with its straightforward
// form.
//
// `Costmap::refresh` splits each chamfer sweep row into a pass over the
// neighbouring row and a serial in-row chain, and seeds lethal cells in
// one pass. The reference below is the costmap as it was written
// before: fill with `1e9`, overwrite lethal cells, then one five-way
// `f32::min` chain per cell in each sweep. The kernel must agree with
// it on every cost, every footprint answer and the `Work` it records.
// ---------------------------------------------------------------------

/// The costmap with its original two-pass refresh.
struct ReferenceCostmap {
    cfg: CostmapConfig,
    dims: GridDims,
    static_lethal: Vec<bool>,
    marked_at: Vec<u32>,
    master: Vec<u8>,
    updates: u32,
}

impl ReferenceCostmap {
    fn from_map(cfg: CostmapConfig, map: &MapMsg) -> Self {
        let mut cm = ReferenceCostmap::empty(cfg, map.dims);
        cm.set_static_map(map);
        cm.refresh(map, None, &mut WorkMeter::new());
        cm
    }

    fn empty(cfg: CostmapConfig, dims: GridDims) -> Self {
        ReferenceCostmap {
            cfg,
            dims,
            static_lethal: vec![false; dims.len()],
            marked_at: vec![0; dims.len()],
            master: vec![COST_UNKNOWN; dims.len()],
            updates: 0,
        }
    }

    fn cost(&self, idx: GridIndex) -> u8 {
        if self.dims.contains(idx) {
            self.master[self.dims.flat(idx)]
        } else {
            COST_LETHAL
        }
    }

    fn set_static_map(&mut self, map: &MapMsg) {
        for (dst, &c) in self.static_lethal.iter_mut().zip(&map.cells) {
            *dst = c == MapMsg::OCCUPIED;
        }
    }

    fn update(&mut self, map: &MapMsg, pose: Pose2D, scan: &LaserScan, meter: &mut WorkMeter) {
        self.updates += 1;
        let origin = pose.position();
        let mut ray_cells = 0u64;
        for i in 0..scan.len() {
            let endpoint = scan.beam_endpoint(pose, i);
            let end_cell = self.dims.world_to_grid(endpoint);
            for cell in GridRay::new(&self.dims, origin, endpoint) {
                ray_cells += 1;
                if cell == end_cell {
                    break;
                }
                if self.dims.contains(cell) {
                    let flat = self.dims.flat(cell);
                    self.marked_at[flat] = 0;
                }
            }
            if scan.is_hit(i) && self.dims.contains(end_cell) {
                let flat = self.dims.flat(end_cell);
                self.marked_at[flat] = self.updates;
            }
        }
        meter.serial_ops(ray_cells, cost::CYCLES_PER_RAY_CELL);
        self.refresh(map, Some(pose.position()), meter);
    }

    #[allow(clippy::needless_range_loop)]
    fn refresh(&mut self, map: &MapMsg, robot: Option<Point2>, meter: &mut WorkMeter) {
        let (w, h) = (self.dims.width as usize, self.dims.height as usize);
        let n = w * h;
        let res = self.dims.resolution;
        let big = 1e9f32;
        let mut dist = vec![big; n];
        for i in 0..n {
            let lethal = self.static_lethal[i]
                || (self.marked_at[i] != 0
                    && self.updates - self.marked_at[i] < self.cfg.mark_ttl_updates);
            if lethal {
                dist[i] = 0.0;
            }
        }
        let (orth, diag) = (res as f32, res as f32 * std::f32::consts::SQRT_2);
        for row in 0..h {
            for col in 0..w {
                let i = row * w + col;
                let mut d = dist[i];
                if col > 0 {
                    d = d.min(dist[i - 1] + orth);
                }
                if row > 0 {
                    d = d.min(dist[i - w] + orth);
                    if col > 0 {
                        d = d.min(dist[i - w - 1] + diag);
                    }
                    if col + 1 < w {
                        d = d.min(dist[i - w + 1] + diag);
                    }
                }
                dist[i] = d;
            }
        }
        for row in (0..h).rev() {
            for col in (0..w).rev() {
                let i = row * w + col;
                let mut d = dist[i];
                if col + 1 < w {
                    d = d.min(dist[i + 1] + orth);
                }
                if row + 1 < h {
                    d = d.min(dist[i + w] + orth);
                    if col > 0 {
                        d = d.min(dist[i + w - 1] + diag);
                    }
                    if col + 1 < w {
                        d = d.min(dist[i + w + 1] + diag);
                    }
                }
                dist[i] = d;
            }
        }
        let inscribed = self.cfg.inscribed_radius as f32;
        let inflate = self.cfg.inflation_radius as f32;
        for i in 0..n {
            let d = dist[i];
            self.master[i] = if d <= 0.0 {
                COST_LETHAL
            } else if d <= inscribed {
                COST_INSCRIBED
            } else if d <= inflate {
                let factor = (-(self.cfg.cost_scaling as f32) * (d - inscribed))
                    .exp()
                    .clamp(0.0, 1.0);
                (factor * COST_FREE_MAX as f32) as u8
            } else if map.cells[i] == MapMsg::UNKNOWN && self.marked_at[i] == 0 {
                COST_UNKNOWN
            } else {
                0
            };
        }
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
        let total = n as f64 * cost::CYCLES_PER_REFRESH_CELL;
        meter.serial_ops(1, total * 0.1);
        meter.parallel_ops(1, total * 0.9, 512);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn costmap_refresh_matches_reference_chamfer(
        seed in 0u64..10_000,
        (si, from_map) in (0usize..9, any::<bool>()),
        (blocks, speckle_pct, unknown_pct) in (0usize..12, 0usize..10, 0usize..50),
        (ttl, inscribed, inflation) in (0usize..4, 0.0f64..0.2, 0.0f64..0.6),
        ops in proptest::collection::vec((0usize..4, -0.1f64..1.1, -0.1f64..1.1, 0u64..1000), 0..32),
        probes in proptest::collection::vec((0usize..6, 0.0f64..1.0, 0.0f64..1.0, 0.01f64..0.2), 40..80),
    ) {
        // Widths 1, 2 and either side of a 64-cell word, a 130-wide
        // grid, and single-row grids.
        let size = [
            (1, 37), (2, 29), (63, 21), (64, 17), (65, 24), (130, 19),
            (50, 1), (130, 1), (1, 1),
        ][si];
        let map = random_map(seed, size, blocks, speckle_pct, unknown_pct);
        // Short mark lifetimes let marks expire inside the sequence.
        let cfg = CostmapConfig {
            inscribed_radius: inscribed,
            inflation_radius: inscribed + inflation,
            mark_ttl_updates: [1, 2, 5, 25][ttl],
            ..Default::default()
        };
        let (mut cm, mut reference) = if from_map {
            (Costmap::from_map(cfg.clone(), &map), ReferenceCostmap::from_map(cfg, &map))
        } else {
            (Costmap::empty(cfg.clone(), map.dims), ReferenceCostmap::empty(cfg, map.dims))
        };
        let mut known = map.clone();
        let (wx, wy) = map.dims.world_size();
        let (mut meter, mut want) = (WorkMeter::new(), WorkMeter::new());
        for &(kind, u, t, s) in &ops {
            if kind == 0 {
                known = random_map(seed ^ s, size, blocks, speckle_pct, unknown_pct);
                cm.set_static_map(&known);
                reference.set_static_map(&known);
            } else {
                // Poses may sit just outside the grid; footprint
                // clearing then touches only its in-grid part.
                let pose = Pose2D::new(u * wx, t * wy, s as f64 * 0.01);
                let scan = random_scan(s);
                cm.update(&known, pose, &scan, &mut meter);
                reference.update(&known, pose, &scan, &mut want);
            }
            for row in 0..size.1 as i32 {
                for col in 0..size.0 as i32 {
                    let idx = GridIndex::new(col, row);
                    prop_assert_eq!(cm.cost(idx), reference.cost(idx), "cost at {:?}", idx);
                }
            }
        }
        let (got, want) = (meter.finish(), want.finish());
        prop_assert_eq!(got.total_cycles().to_bits(), want.total_cycles().to_bits());
        prop_assert_eq!(got.serial_cycles.to_bits(), want.serial_cycles.to_bits());
        prop_assert_eq!(got.parallel_cycles.to_bits(), want.parallel_cycles.to_bits());
        prop_assert_eq!(got.parallel_items, want.parallel_items);
        for &(edge, u, t, r) in &probes {
            let p = probe_point(cm.dims(), edge, u, t);
            prop_assert_eq!(
                cm.footprint_collides(p, r),
                reference_footprint_collides(&reference.dims, |i| reference.cost(i), p, r),
                "footprint at {:?} radius {}", p, r
            );
        }
    }
}
