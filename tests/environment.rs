//! Cross-crate integration: the whole environment pipeline on one program
//! (parse → type check → compile → expand → schedule → macro-code →
//! executive), with emulation-vs-execution equality.

use skipper::{Backend, SeqBackend};
use skipper_bench::pipeline;
use skipper_exec::SimBackend;
use skipper_lang::parser::parse_program;
use skipper_lang::types::check_program;
use skipper_net::validate::is_well_formed;
use skipper_net::FarmShape;
use skipper_syndex::analysis::{check_deadlock_free, comm_volume};

#[test]
fn mini_tracker_source_typechecks() {
    let prog = parse_program(pipeline::MINI_TRACKER_ML).unwrap();
    let env = pipeline::mini_tracker_registry().type_env().unwrap();
    let types = check_program(&env, &prog).unwrap();
    assert_eq!(types.scheme_of("main").unwrap().ty.to_string(), "unit");
}

#[test]
fn expansion_is_well_formed_and_schedulable_everywhere() {
    for nprocs in [2usize, 3, 4, 8] {
        let (_, exec) = pipeline::prepare_mini_tracker(&SimBackend::ring(nprocs)).unwrap();
        let stat = exec.statics().unwrap();
        assert!(is_well_formed(stat.net()), "{nprocs} procs");
        check_deadlock_free(stat.programs(), 3).unwrap_or_else(|e| panic!("{nprocs} procs: {e}"));
        // All static stages are pinned to P0, so the *static* executive has
        // no messages; the farm's traffic is scheduled dynamically at run
        // time (the paper's mixed static/dynamic scheduling).
        assert_eq!(comm_volume(stat.programs()), 0, "{nprocs} procs");
    }
}

#[test]
fn emulation_equals_execution_across_machines() {
    let emu = pipeline::emulate_mini_tracker(6).unwrap();
    assert_eq!(emu.len(), 6);
    let prog = pipeline::compile_mini_tracker().unwrap();
    let (_, ys) = SeqBackend.run(&prog.loop_program(), prog.frames(6));
    let seq: Vec<i64> = ys.iter().map(|y| y.as_int().unwrap()).collect();
    assert_eq!(seq, emu, "compiled program on SeqBackend");
    let machines = [1usize, 2, 5]
        .map(SimBackend::ring)
        .into_iter()
        .chain([2usize, 5].map(|n| SimBackend::ring(n).with_farm_shape(FarmShape::Ring)));
    for sim in machines {
        let (out, _) = pipeline::simulate_mini_tracker(&sim, 6).unwrap();
        assert_eq!(out, emu, "{sim:?}");
    }
}

#[test]
fn bigger_machines_do_not_increase_makespan() {
    let makespan = |n| {
        let (_, report) = pipeline::simulate_mini_tracker(&SimBackend::ring(n), 4).unwrap();
        report.sim.end_ns
    };
    let (r1, r2, r5) = (makespan(1), makespan(2), makespan(5));
    assert!(r5 < r1, "5 procs must beat 1 proc");
    assert!(r5 <= r2 * 11 / 10, "5 procs should not be much slower");
}
