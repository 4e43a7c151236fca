//! The full environment pipeline of Fig. 2 on the paper's §4 vehicle
//! tracker (`examples/dsl/tracking.skp`): the Skipper-ML source is parsed,
//! type-checked against the application kernels, compiled, expanded into
//! a process network on a ring of 9 processors, scheduled, verified
//! dead-lock free and emitted as per-processor m4 macro-code.
//!
//! ```text
//! cargo run --example ml_pipeline
//! ```

use skipper::Backend;
use skipper_apps::kernels::app_registry;
use skipper_exec::{SimBackend, Value};
use skipper_lang::{check_program, compile_program, parse_program};
use skipper_syndex::analysis::check_deadlock_free;

const SOURCE: &str = include_str!("dsl/tracking.skp");

fn main() {
    // 1. The application's sequential C functions, with their signatures.
    let registry = app_registry();

    // 2. Parse + polymorphic type check.
    let prog = parse_program(SOURCE).expect("parses");
    let env = registry.type_env().expect("signatures parse");
    let types = check_program(&env, &prog).expect("type checks");
    println!("— type checking —");
    for (name, scheme) in &types.items {
        println!("val {name} : {}", scheme.ty);
    }

    // 3. Compilation, skeleton expansion, AAA mapping/scheduling onto a
    //    ring of 9 (master + 8 worker processors) and macro-code
    //    generation: all done once, by `prepare`.
    let compiled = compile_program(&registry, &prog).expect("compiles");
    let sim = SimBackend::ring(9);
    let exec = Backend::<_, Vec<Value>>::prepare(&sim, &compiled.loop_program());
    let stat = exec.statics().expect("prepares");
    println!(
        "\n— skeleton expansion — {} processes, {} channels",
        stat.net().len(),
        stat.net().edges().len()
    );
    println!(
        "\n— adequation — predicted makespan {:.2} ms on a 9-processor ring",
        stat.schedule().makespan_ns as f64 / 1e6
    );

    // 4. Deadlock verification of the generated executive.
    check_deadlock_free(stat.programs(), 3).expect("dead-lock free executive");
    println!("\n— generated executive (P0 macro-code) —");
    print!("{}", stat.programs()[0].emit_m4(stat.net()));
    println!("\n(executive verified dead-lock free over 3 iterations)");
}
