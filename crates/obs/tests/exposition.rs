//! Golden Prometheus exposition: a fixed set of recordings renders to the
//! committed bytes of `fixtures/exposition.prom`.
//!
//! One test in its own binary: the tap is process-global, so nothing else
//! may record while this one renders.

use dstage_obs::metrics::{
    render_prometheus, SERVICE_DECISIONS, SERVICE_DISPLACED_DEPTH, SERVICE_VERB_QUERY_US,
    SIM_QUEUE_WAIT_US,
};

#[test]
fn exposition_matches_the_recorded_golden() {
    dstage_obs::reset();
    dstage_obs::set_enabled(true);
    SERVICE_DECISIONS.add(7);
    SERVICE_DISPLACED_DEPTH.set(-3);
    SERVICE_VERB_QUERY_US.record(120);
    SIM_QUEUE_WAIT_US.record(2_000_000);

    let text = render_prometheus();
    let golden = include_str!("fixtures/exposition.prom");
    assert_eq!(text.lines().count(), 312);
    assert_eq!(text.matches("# TYPE ").count(), 45);
    if text != golden {
        let first = text.lines().zip(golden.lines()).position(|(a, b)| a != b);
        panic!("exposition differs from the golden (first differing line: {first:?})\n{text}");
    }
}
