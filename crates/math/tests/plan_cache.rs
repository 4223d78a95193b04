//! Plan-cache accounting. The cache counters are process-global, so these
//! checks live in their own test binary and run one at a time: no other
//! test can build a plan inside their windows.

use liair_math::plan::{plan, plan_cache_stats};
use std::sync::{Barrier, Mutex};

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn smooth_length_plan_is_one_miss_and_no_pow2_sub_plan() {
    let _guard = SERIAL.lock().unwrap();
    // 360 = 2³·3²·5: before the mixed-radix path this was a Bluestein plan
    // that also built (and cached) a 1024-point sub-plan.
    let before = plan_cache_stats();
    let p = plan(360);
    let after = plan_cache_stats();
    let d = after.since(&before);
    assert_eq!(p.len(), 360);
    assert_eq!(d.misses, 1, "{d:?}");
    assert_eq!(d.hits, 0, "{d:?}");
    assert_eq!(
        after.plans,
        before.plans + 1,
        "a sub-plan was cached: {d:?}"
    );

    // The second lookup is a pure hit.
    let again = plan(360);
    let d = plan_cache_stats().since(&after);
    assert!(std::sync::Arc::ptr_eq(&p, &again));
    assert_eq!((d.hits, d.misses), (1, 0), "{d:?}");
}

#[test]
fn racing_first_lookups_count_one_miss() {
    let _guard = SERIAL.lock().unwrap();
    let threads = 4;
    let before = plan_cache_stats();
    let barrier = Barrier::new(threads);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                barrier.wait();
                plan(1000)
            });
        }
    });
    let d = plan_cache_stats().since(&before);
    assert_eq!((d.misses, d.hits), (1, threads as u64 - 1), "{d:?}");
}
