//! One `Tiled` answer across hosts: a coordinator on the ISA its host
//! resolves and shard servers pinned to the portable kernel commit the
//! flat run's report and weights, bit for bit. Both kernel sets fuse each
//! multiply-add, so a shard host without AVX2 trains the bits of one with
//! it.
//!
//! This test must stay the only one in its binary: the kernel ISA is
//! resolved once per process, so it is fixed here before
//! `GRADSEC_TILED_ISA` is set, and only the spawned shard servers read
//! that value. The ISAs mix only where the host runs AVX2+FMA; on a host
//! without them, or under `GRADSEC_TILED_ISA=portable`, the coordinator
//! resolves portable too and the cells still run, on one kernel.

use gradsec_bench::gate::{hold, Deployment, Section};
use gradsec_bench::matrix;
use gradsec_nn::BackendKind;
use gradsec_tensor::backend::Tiled;

#[test]
fn portable_shard_servers_commit_what_the_coordinator_commits() {
    let coordinator = Tiled::auto().isa();
    eprintln!("coordinator ISA: {coordinator}; shard servers: portable");
    std::env::set_var("GRADSEC_TILED_ISA", "portable");
    let sections: Vec<Section> = (matrix::corners().into_iter())
        .filter(|s| s.scenario.backend == BackendKind::Tiled)
        .map(|s| Section {
            deployments: vec![Deployment::Processes(2, 2)],
            ..s
        })
        .collect();
    assert_eq!(sections.len(), 52, "the Tiled product and policy corners");
    hold(&sections);
}
