//! Shared-spectrum contention between fleet uplinks.
//!
//! The paper's experiments give the single robot the whole access
//! point. A fleet does not get that luxury: every vehicle's uplink
//! crosses the same WAP, and 802.11-style media are *serialization
//! shared* — when `k` stations contend, each one's effective airtime
//! stretches by roughly the airtime the other `k−1` occupy.
//!
//! [`SharedMedium`] models exactly that, deterministically:
//!
//! * Virtual time is divided into fixed windows (one control period by
//!   default). Each transmission records its sender id in the current
//!   window.
//! * A transmission in window `w` pays an **extra serialization delay**
//!   of `airtime × (distinct other senders in window w−1)`. Reading
//!   the *previous* window keeps the penalty independent of intra-round
//!   ordering: the fleet driver runs vehicles in lockstep rounds, so by
//!   the time any vehicle transmits in window `w`, window `w−1` is
//!   final and every vehicle observes the same count.
//! * A vehicle alone on the medium — in particular a fleet of one, or
//!   any channel that never joined a medium — pays **exactly zero**
//!   extra delay, preserving byte-identity with single-vehicle runs.
//!
//! The handle is `Clone`; clones share state, so one medium is created
//! per fleet and every vehicle's uplink joins it via
//! [`crate::link::DuplexLink::join_shared_medium`].

use lgv_types::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// Exact integer scaling (`Duration` only multiplies by `f64`).
fn scale(d: Duration, n: u64) -> Duration {
    Duration::from_nanos(d.as_nanos() * n)
}

/// Aggregate counters for one shared medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MediumStats {
    /// Transmissions that consulted the medium.
    pub sends: u64,
    /// Transmissions that paid a non-zero contention delay.
    pub contended_sends: u64,
    /// Total extra serialization delay paid across all senders.
    pub total_extra: Duration,
    /// Most distinct senders observed in any single window.
    pub peak_senders: u64,
}

impl MediumStats {
    /// Fraction of transmissions that paid a non-zero contention
    /// delay (0.0 on an idle medium).
    pub fn contended_fraction(&self) -> f64 {
        if self.sends == 0 {
            0.0
        } else {
            self.contended_sends as f64 / self.sends as f64
        }
    }

    /// Mean extra serialization delay per transmission, seconds — the
    /// airtime-stretch metric the regional fleet tables report.
    pub fn mean_extra_secs(&self) -> f64 {
        if self.sends == 0 {
            0.0
        } else {
            self.total_extra.as_secs_f64() / self.sends as f64
        }
    }

    /// Fold another medium's counters into this one (counter sums,
    /// peak max) — used to aggregate per-region WAPs into a fleet
    /// total. Exact: every field is integer arithmetic.
    pub fn absorb(&mut self, other: &MediumStats) {
        self.sends += other.sends;
        self.contended_sends += other.contended_sends;
        self.total_extra += other.total_extra;
        self.peak_senders = self.peak_senders.max(other.peak_senders);
    }
}

#[derive(Debug)]
struct MediumInner {
    window: Duration,
    /// Distinct sender ids per window index. Old windows are pruned;
    /// only `w−1` and `w` are ever consulted.
    active: BTreeMap<u64, BTreeSet<u64>>,
    stats: MediumStats,
}

/// One wireless access point shared by several uplinks.
///
/// Cheap to clone; clones share the same contention state.
#[derive(Debug, Clone)]
pub struct SharedMedium {
    inner: Arc<Mutex<MediumInner>>,
}

impl SharedMedium {
    /// A medium whose contention window is `window` wide. Use the
    /// fleet's control period so "concurrent" means "within the same
    /// control cycle".
    pub fn new(window: Duration) -> Self {
        SharedMedium {
            inner: Arc::new(Mutex::new(MediumInner {
                window: if window == Duration::ZERO {
                    Duration::from_millis(200)
                } else {
                    window
                },
                active: BTreeMap::new(),
                stats: MediumStats::default(),
            })),
        }
    }

    /// Record a transmission by `sender` at `now` occupying `airtime`
    /// of serialization, and return the extra delay contention imposes
    /// on it: `airtime × (distinct other senders in the previous
    /// window)`. Zero when the sender had the medium to itself.
    pub fn contend(&self, sender: u64, now: SimTime, airtime: Duration) -> Duration {
        let mut inner = self.inner.lock().unwrap();
        let w = now.as_nanos() / inner.window.as_nanos().max(1);

        let slot = inner.active.entry(w).or_default();
        slot.insert(sender);
        let here = slot.len() as u64;
        inner.stats.peak_senders = inner.stats.peak_senders.max(here);
        // Keep only the windows the model can still consult.
        inner.active = inner.active.split_off(&w.saturating_sub(1));

        let others = inner
            .active
            .get(&w.wrapping_sub(1))
            .map_or(0, |prev| prev.iter().filter(|&&s| s != sender).count())
            as u64;

        inner.stats.sends += 1;
        let extra = scale(airtime, others);
        if others > 0 {
            inner.stats.contended_sends += 1;
            inner.stats.total_extra += extra;
        }
        extra
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> MediumStats {
        self.inner.lock().unwrap().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AIR: Duration = Duration::from_millis(1);

    fn at(ms: u64) -> SimTime {
        SimTime::EPOCH + Duration::from_millis(ms)
    }

    #[test]
    fn lone_sender_pays_nothing_ever() {
        let m = SharedMedium::new(Duration::from_millis(200));
        for i in 0..50 {
            assert_eq!(m.contend(1, at(i * 40), AIR), Duration::ZERO);
        }
        let stats = m.stats();
        assert_eq!(stats.contended_sends, 0);
        assert_eq!(stats.total_extra, Duration::ZERO);
        assert_eq!(stats.peak_senders, 1);
    }

    #[test]
    fn contention_charges_for_last_windows_other_senders() {
        let m = SharedMedium::new(Duration::from_millis(200));
        // Window 0: three senders active.
        for v in 1..=3 {
            assert_eq!(m.contend(v, at(10 * v), AIR), Duration::ZERO);
        }
        // Window 1: each pays for the other two from window 0.
        assert_eq!(m.contend(1, at(210), AIR), scale(AIR, 2));
        assert_eq!(m.contend(9, at(220), AIR), scale(AIR, 3));
        assert_eq!(m.stats().peak_senders, 3);
        assert_eq!(m.stats().contended_sends, 2);
    }

    #[test]
    fn idle_gap_resets_the_penalty() {
        let m = SharedMedium::new(Duration::from_millis(200));
        m.contend(1, at(0), AIR);
        m.contend(2, at(0), AIR);
        // Two windows later, window w−1 is empty: no charge.
        assert_eq!(m.contend(1, at(450), AIR), Duration::ZERO);
    }

    #[test]
    fn order_within_a_round_does_not_matter() {
        // Whatever order vehicles transmit inside window 1, each reads
        // the same finalized window-0 census.
        let run = |order: &[u64]| -> Vec<Duration> {
            let m = SharedMedium::new(Duration::from_millis(200));
            for &v in order {
                m.contend(v, at(0), AIR);
            }
            order.iter().map(|&v| m.contend(v, at(200), AIR)).collect()
        };
        assert_eq!(run(&[1, 2, 3]), vec![scale(AIR, 2); 3]);
        assert_eq!(run(&[3, 1, 2]), vec![scale(AIR, 2); 3]);
    }

    #[test]
    fn stats_absorb_sums_counters_and_maxes_peak() {
        let a = SharedMedium::new(Duration::from_millis(200));
        a.contend(1, at(0), AIR);
        a.contend(2, at(0), AIR);
        a.contend(1, at(200), AIR);
        let b = SharedMedium::new(Duration::from_millis(200));
        b.contend(7, at(0), AIR);
        let mut total = a.stats();
        total.absorb(&b.stats());
        assert_eq!(total.sends, 4);
        assert_eq!(total.contended_sends, 1);
        assert_eq!(total.total_extra, AIR);
        assert_eq!(total.peak_senders, 2);
        assert!((total.contended_fraction() - 0.25).abs() < 1e-12);
        assert!(total.mean_extra_secs() > 0.0);
        assert_eq!(MediumStats::default().contended_fraction(), 0.0);
        assert_eq!(MediumStats::default().mean_extra_secs(), 0.0);
    }

    #[test]
    fn zero_window_falls_back_to_one_control_period() {
        let m = SharedMedium::new(Duration::ZERO);
        m.contend(1, at(0), AIR);
        m.contend(2, at(150), AIR); // same 200 ms window as t = 0
        assert_eq!(m.contend(1, at(210), AIR), AIR);
        assert_eq!(m.stats().peak_senders, 2);
    }

    #[test]
    fn a_sender_counts_once_per_window_however_often_it_sends() {
        let m = SharedMedium::new(Duration::from_millis(200));
        for i in 0..5 {
            m.contend(2, at(i * 30), AIR);
        }
        m.contend(1, at(10), AIR);
        assert_eq!(m.contend(1, at(200), AIR), AIR);
        // The charge scales with the sender's own airtime.
        assert_eq!(m.contend(1, at(220), scale(AIR, 4)), scale(AIR, 4));
        assert_eq!(m.stats().sends, 8);
    }

    #[test]
    fn clones_share_state() {
        let m = SharedMedium::new(Duration::from_millis(200));
        let m2 = m.clone();
        m.contend(1, at(0), AIR);
        m2.contend(2, at(0), AIR);
        assert_eq!(m.contend(1, at(200), AIR), AIR);
        assert_eq!(m.stats().sends, 3);
    }
}
