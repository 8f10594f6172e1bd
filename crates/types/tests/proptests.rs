//! Property-based tests for the foundation types.

use lgv_types::prelude::*;
use proptest::prelude::*;
use std::f64::consts::PI;

proptest! {
    #[test]
    fn normalize_angle_always_in_range(a in -1e6f64..1e6) {
        let n = normalize_angle(a);
        prop_assert!(n > -PI && n <= PI);
    }

    #[test]
    fn normalize_angle_preserves_direction(a in -1e3f64..1e3) {
        // The normalized angle differs from the input by a multiple of 2π.
        let n = normalize_angle(a);
        let k = (a - n) / (2.0 * PI);
        prop_assert!((k - k.round()).abs() < 1e-6, "k = {k}");
    }

    #[test]
    fn angle_sub_is_shortest(a in -10.0f64..10.0, b in -10.0f64..10.0) {
        let d = (Angle::from_radians(a) - Angle::from_radians(b)).radians();
        prop_assert!(d.abs() <= PI + 1e-9);
    }

    #[test]
    fn pose_roundtrip_local_world(
        px in -50.0f64..50.0, py in -50.0f64..50.0, pth in -PI..PI,
        qx in -50.0f64..50.0, qy in -50.0f64..50.0,
    ) {
        let pose = Pose2D::new(px, py, pth);
        let q = Point2::new(qx, qy);
        let rt = pose.transform_to_local(pose.transform_from_local(q));
        prop_assert!(rt.distance(q) < 1e-9);
    }

    #[test]
    fn pose_compose_between_roundtrip(
        ax in -20.0f64..20.0, ay in -20.0f64..20.0, ath in -PI..PI,
        bx in -20.0f64..20.0, by in -20.0f64..20.0, bth in -PI..PI,
    ) {
        let a = Pose2D::new(ax, ay, ath);
        let b = Pose2D::new(bx, by, bth);
        let r = a.compose(a.between(b));
        prop_assert!(r.distance(b) < 1e-9);
        prop_assert!(normalize_angle(r.theta - b.theta).abs() < 1e-9);
    }

    #[test]
    fn integrate_arc_length_matches_speed(
        v in 0.0f64..1.0, w in -2.0f64..2.0, dt in 0.001f64..0.5,
    ) {
        // Over a short step the chord length is ≤ v·dt and close to it.
        let p = Pose2D::new(0.0, 0.0, 0.0);
        let q = p.integrate(Twist::new(v, w), dt);
        let chord = p.distance(q);
        prop_assert!(chord <= v * dt + 1e-9);
        prop_assert!(chord >= v * dt * 0.9 - 1e-9, "chord {chord} vs {}", v * dt);
    }

    #[test]
    fn grid_world_roundtrip(col in 0i32..200, row in 0i32..150) {
        let dims = GridDims::new(200, 150, 0.05, Point2::new(-3.0, -2.0));
        let idx = GridIndex::new(col, row);
        prop_assert_eq!(dims.world_to_grid(dims.grid_to_world(idx)), idx);
    }

    #[test]
    fn grid_flat_roundtrip(col in 0i32..64, row in 0i32..48) {
        let dims = GridDims::new(64, 48, 0.1, Point2::ORIGIN);
        let idx = GridIndex::new(col, row);
        prop_assert_eq!(dims.unflat(dims.flat(idx)), idx);
    }

    #[test]
    fn ray_is_connected_and_terminates(
        x0 in 0.05f64..9.95, y0 in 0.05f64..7.95,
        x1 in 0.05f64..9.95, y1 in 0.05f64..7.95,
    ) {
        let dims = GridDims::new(100, 80, 0.1, Point2::ORIGIN);
        let cells: Vec<_> = GridRay::new(&dims, Point2::new(x0, y0), Point2::new(x1, y1)).collect();
        prop_assert!(!cells.is_empty());
        prop_assert_eq!(cells[0], dims.world_to_grid(Point2::new(x0, y0)));
        prop_assert_eq!(*cells.last().unwrap(), dims.world_to_grid(Point2::new(x1, y1)));
        for w in cells.windows(2) {
            prop_assert_eq!(w[0].manhattan(w[1]), 1);
        }
    }

    #[test]
    fn flat_ray_visits_the_grid_ray_cells(
        x0 in -2.0f64..8.0, y0 in -2.0f64..7.0,
        x1 in -2.0f64..8.0, y1 in -2.0f64..7.0,
        snap in 0u8..4,
    ) {
        // Grid 6 × 5 m with its origin off zero, segments starting and
        // ending on either side of its edges; `snap` puts the start on
        // a cell border so some rays run along borders.
        let dims = GridDims::new(48, 40, 0.125, Point2::new(-0.5, -0.25));
        let from = match snap {
            0 => Point2::new((x0 * 8.0).round() / 8.0 - 0.5, y0),
            1 => Point2::new(x0, (y0 * 8.0).round() / 8.0 - 0.25),
            _ => Point2::new(x0, y0),
        };
        let to = if snap == 3 { Point2::new(from.x + (x1 - x0), from.y) } else { Point2::new(x1, y1) };
        let cells: Vec<GridIndex> = GridRay::new(&dims, from, to).collect();
        let end = dims.world_to_grid(to);
        let before_end: Vec<Option<usize>> = cells
            .iter()
            .take_while(|&&c| c != end)
            .map(|&c| dims.contains(c).then(|| dims.flat(c)))
            .collect();
        let mut ray = FlatRay::new(&dims, from, to);
        let flat: Vec<Option<usize>> = ray.by_ref().collect();
        prop_assert_eq!(flat, before_end);
        prop_assert_eq!(ray.reached_end(), cells.last() == Some(&end));
        prop_assert_eq!(ray.end_flat(), dims.contains(end).then(|| dims.flat(end)));
    }

    #[test]
    fn floor_i32_is_floor_near_integers_and_the_i32_edges(k in any::<i32>(), d in -2.0f64..2.0) {
        for x in [k as f64 + d, k as f64 + d * 1e-9, d * 1e-300, (k as f64) * 4.0] {
            prop_assert_eq!(lgv_types::floor_i32(x), x.floor() as i32, "x = {:e}", x);
        }
    }

    #[test]
    fn duration_secs_roundtrip(s in 0.0f64..1e6) {
        let d = Duration::from_secs_f64(s);
        prop_assert!((d.as_secs_f64() - s).abs() < 1e-6);
    }

    #[test]
    fn weighted_index_only_picks_positive(seed in 0u64..1000, n in 1usize..16) {
        let mut rng = SimRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 0.0 } else { 1.0 }).collect();
        if let Some(i) = rng.weighted_index(&weights) {
            prop_assert!(weights[i] > 0.0);
        } else {
            prop_assert!(weights.iter().all(|&w| w <= 0.0));
        }
    }

    #[test]
    fn low_variance_resample_in_bounds(seed in 0u64..500, n in 1usize..12, k in 1usize..64) {
        let mut rng = SimRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..n).map(|i| (i as f64) + 0.5).collect();
        let idx = lgv_types::rng::low_variance_resample(&mut rng, &weights, k);
        prop_assert_eq!(idx.len(), k);
        prop_assert!(idx.iter().all(|&i| i < n));
        // Systematic resampling produces sorted index sequences.
        prop_assert!(idx.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn nodeset_roundtrip(bits in 0u8..128) {
        let kinds: Vec<NodeKind> = NodeKind::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| bits & (1 << i) != 0)
            .map(|(_, k)| k)
            .collect();
        let set = NodeSet::from_iter(kinds.iter().copied());
        prop_assert_eq!(set.len(), kinds.len());
        let back: Vec<NodeKind> = set.iter().collect();
        prop_assert_eq!(back, kinds);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn floor_i32_is_floor_for_any_bit_pattern(x in any::<f64>()) {
        prop_assert_eq!(lgv_types::floor_i32(x), x.floor() as i32, "x = {:e} ({:#x})", x, x.to_bits());
    }
}
