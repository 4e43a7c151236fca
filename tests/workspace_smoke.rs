//! Workspace smoke test: the umbrella quickstart runs and every layer
//! re-exported by `skipper_env` is reachable through the facade.
//!
//! This exists so that manifest regressions — a crate dropped from the
//! workspace, a broken re-export in `src/lib.rs`, a renamed library
//! target — fail loudly and point here, instead of surfacing as a
//! confusing downstream import error.

/// The doc-quickstart from `src/lib.rs`, exercised through the facade
/// paths rather than the direct crate names.
#[test]
fn umbrella_quickstart_runs() {
    use skipper_env::skipper::{df, Backend, PoolBackend, SeqBackend};
    let farm = df(4, |x: &u64| x * x, |z: u64, y: u64| z + y, 0u64);
    let xs: Vec<u64> = (1..=10).collect();
    assert_eq!(
        PoolBackend::new().run(&farm, &xs[..]),
        SeqBackend.run(&farm, &xs[..])
    );
}

/// Touches one cheap, load-bearing item in each re-exported crate, in the
/// order of the layer table in `src/lib.rs`.
#[test]
fn every_reexported_crate_is_reachable() {
    // skeleton library
    use skipper_env::skipper::{Backend, PoolBackend};
    let scm = skipper_env::skipper::scm(
        2,
        |v: &Vec<u32>, n| v.chunks(v.len().div_ceil(n)).map(<[u32]>::to_vec).collect(),
        |c: Vec<u32>| c.iter().sum::<u32>(),
        |ps: Vec<u32>| ps.iter().sum::<u32>(),
    );
    assert_eq!(
        PoolBackend::new().run(&scm, &(1..=100).collect::<Vec<u32>>()),
        5050
    );

    // ML front-end
    let prog = skipper_env::skipper_lang::parse_program("let double = fun x -> x + x;;")
        .expect("front-end parses");
    drop(prog);

    // process networks
    let net = skipper_env::skipper_net::ProcessNetwork::new("smoke");
    assert_eq!(net.len(), 0);

    // AAA back-end
    let arch = skipper_env::skipper_syndex::Architecture::ring_t9000(4);
    drop(arch);

    // executive
    let v = skipper_env::skipper_exec::Value::Int(3);
    assert!(!format!("{v:?}").is_empty());

    // platform
    let topo = skipper_env::transvision::topology::Topology::ring(4);
    assert_eq!(topo.len(), 4);

    // image processing
    let mut img = skipper_env::skipper_vision::Image::<u8>::new(16, 16);
    img.fill_rect(2, 2, 4, 4, 255);

    // applications
    assert_eq!(
        skipper_env::skipper_apps::ccl::count_components_seq(&img),
        1
    );
}
