//! Span nesting must stay coherent when worker threads record in
//! parallel: depth is tracked per thread, so a worker thread's span is a
//! root (depth 0) on that thread while spans opened inside it
//! nest below it, and events from different threads carry distinct tids.
//! Own binary: mutates the global registry.

use std::collections::BTreeMap;

#[test]
fn spans_nest_per_thread_under_threads() {
    cpo_obs::enable();
    cpo_obs::reset();

    {
        let _root = cpo_obs::span!("exper.run", run = 0u64);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                scope.spawn(move || {
                    for i in t * 16..(t + 1) * 16 {
                        let _outer = cpo_obs::span!("nsga3.generation", gen = i);
                        let _inner = cpo_obs::span!("moea.hypervolume");
                        std::hint::black_box(i * i);
                    }
                });
            }
        });
    }

    cpo_obs::disable();
    let snap = cpo_obs::snapshot();

    let gens: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.name == "nsga3.generation")
        .collect();
    let hvs: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.name == "moea.hypervolume")
        .collect();
    assert_eq!(gens.len(), 64);
    assert_eq!(hvs.len(), 64);

    // Per-thread nesting: every hypervolume span sits exactly one level
    // below the generation span of the same thread.
    let mut gen_depth_by_tid: BTreeMap<u64, u32> = BTreeMap::new();
    for g in &gens {
        gen_depth_by_tid.insert(g.tid, g.depth);
    }
    for hv in &hvs {
        let gen_depth = gen_depth_by_tid[&hv.tid];
        assert_eq!(
            hv.depth,
            gen_depth + 1,
            "hypervolume span on tid {} must nest under its generation span",
            hv.tid
        );
    }

    // Spans record on drop, so the inner span's window lies within the
    // outer one on the same thread.
    for hv in &hvs {
        let owner = gens.iter().any(|g| {
            g.tid == hv.tid && g.ts_us <= hv.ts_us && hv.ts_us + hv.dur_us <= g.ts_us + g.dur_us
        });
        assert!(owner, "hypervolume span not contained in any generation");
    }

    // The root span on the calling thread is depth 0 and closed last.
    let root = snap
        .events
        .iter()
        .find(|e| e.name == "exper.run")
        .expect("root span recorded");
    assert_eq!(root.depth, 0);

    cpo_obs::reset();
}
