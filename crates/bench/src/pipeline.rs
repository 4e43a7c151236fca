//! The full-environment pipeline demo (Fig. 2 / E2): one program, two
//! semantics.
//!
//! A miniature integer-valued tracker written in Skipper-ML is taken
//! through every stage of the environment — parse, Hindley–Milner type
//! check, compilation against a [`KernelRegistry`], skeleton expansion,
//! AAA scheduling, macro-code generation, simulated execution — and its
//! outputs are compared bit-for-bit against the sequential emulation of
//! the very same source by the Caml-subset interpreter.

use skipper::Backend;
use skipper_exec::{ExecReport, SimBackend, SimLoopExecutable, Value};
use skipper_lang::eval::{Evaluator, MlValue, NativeError};
use skipper_lang::parser::parse_program;
use skipper_lang::{compile_source, CompiledProgram, KernelRegistry};
use std::cell::RefCell;
use std::rc::Rc;

/// The miniature tracker specification (integer-valued; same shape as the
/// paper's §4 program).
pub const MINI_TRACKER_ML: &str = r#"
    let nproc = 4;;
    let loop (state, im) =
      let ws = get_windows nproc state im in
      let marks = df nproc detect_mark accum_marks empty_list ws in
      predict state marks;;
    let main = itermem read_img loop display_marks s0 dims;;
"#;

fn windows_for(nproc: i64, state: i64, im: i64) -> Vec<i64> {
    (0..nproc).map(|i| im + state % 7 + i).collect()
}

fn predict_fn(state: i64, marks: &[i64]) -> (i64, i64) {
    let total: i64 = marks.iter().sum();
    (state + total, total)
}

fn int(v: &Value) -> i64 {
    v.as_int().expect("mini tracker value is an int")
}

/// The miniature tracker's kernels, each registered once with its DSL
/// signature and its body over executive values. Frame `k` (0-based) is
/// the integer `k + 1`; the initial state `s0` is 0.
pub fn mini_tracker_registry() -> KernelRegistry {
    let mut r = KernelRegistry::new();
    let sig = "mini tracker signature parses";
    r.register_source("read_img", "dims -> frame", |_, k| {
        Some(Value::Int(k as i64 + 1))
    })
    .expect(sig);
    r.register_costed(
        "get_windows",
        "int -> state -> frame -> window list",
        10_000,
        |a| {
            let ws = windows_for(int(&a[0]), int(&a[1]), int(&a[2]));
            Value::list(ws.into_iter().map(Value::Int).collect())
        },
    )
    .expect(sig);
    r.register_costed("detect_mark", "window -> mark", 5_000, |a| {
        Value::Int(int(&a[0]).pow(2))
    })
    .expect(sig);
    r.register("accum_marks", "mark list -> mark -> mark list", |a| {
        let mut list = a[0].as_list().expect("marks list").to_vec();
        list.push(a[1].clone());
        Value::list(list)
    })
    .expect(sig);
    r.register_costed(
        "predict",
        "state -> mark list -> state * display",
        5_000,
        |a| {
            let marks: Vec<i64> = a[1]
                .as_list()
                .expect("marks list")
                .iter()
                .map(int)
                .collect();
            let (s2, y) = predict_fn(int(&a[0]), &marks);
            Value::tuple(vec![Value::Int(s2), Value::Int(y)])
        },
    )
    .expect(sig);
    r.register("display_marks", "display -> unit", |_| Value::Unit)
        .expect(sig);
    r.register_constant("empty_list", "mark list", Value::list(Vec::new()))
        .expect(sig);
    r.register_constant("s0", "state", Value::Int(0))
        .expect(sig);
    r.register_constant("dims", "dims", Value::Int(512))
        .expect(sig);
    r
}

/// Sequentially emulates the miniature tracker for `frames` frames,
/// returning the displayed values.
///
/// # Errors
///
/// Propagates parse/type/evaluation diagnostics (as strings).
pub fn emulate_mini_tracker(frames: usize) -> Result<Vec<i64>, String> {
    let prog = parse_program(MINI_TRACKER_ML).map_err(|e| e.to_string())?;
    let mut ev = Evaluator::new();
    let counter = RefCell::new(0i64);
    let max = frames as i64;
    ev.register_native("read_img", 1, move |_| {
        let mut c = counter.borrow_mut();
        if *c >= max {
            return Err(NativeError::EndOfStream);
        }
        *c += 1;
        Ok(MlValue::Int(*c))
    });
    ev.register_native("get_windows", 3, |a| {
        let nproc = a[0].as_int().expect("nproc int");
        let state = a[1].as_int().expect("state int");
        let im = a[2].as_int().expect("frame int");
        Ok(MlValue::List(Rc::new(
            windows_for(nproc, state, im)
                .into_iter()
                .map(MlValue::Int)
                .collect(),
        )))
    });
    ev.register_native("detect_mark", 1, |a| {
        Ok(MlValue::Int(a[0].as_int().expect("window int").pow(2)))
    });
    ev.register_native("accum_marks", 2, |a| {
        let mut list = a[0].as_list().expect("list").to_vec();
        list.push(a[1].clone());
        Ok(MlValue::List(Rc::new(list)))
    });
    ev.register_value("empty_list", MlValue::List(Rc::new(Vec::new())));
    ev.register_native("predict", 2, |a| {
        let state = a[0].as_int().expect("state int");
        let marks: Vec<i64> = a[1]
            .as_list()
            .expect("marks list")
            .iter()
            .map(|m| m.as_int().expect("mark int"))
            .collect();
        let (s2, y) = predict_fn(state, &marks);
        Ok(MlValue::Tuple(Rc::new(vec![
            MlValue::Int(s2),
            MlValue::Int(y),
        ])))
    });
    let shown = Rc::new(RefCell::new(Vec::new()));
    let shown2 = Rc::clone(&shown);
    ev.register_native("display_marks", 1, move |a| {
        shown2
            .borrow_mut()
            .push(a[0].as_int().expect("display int"));
        Ok(MlValue::Unit)
    });
    ev.register_value("s0", MlValue::Int(0));
    ev.register_value("dims", MlValue::Int(512));
    ev.run_program(&prog).map_err(|e| e.to_string())?;
    let out = shown.borrow().clone();
    Ok(out)
}

/// Parses, type-checks and compiles the miniature tracker against
/// [`mini_tracker_registry`].
///
/// # Errors
///
/// The rendered compiler diagnostic.
pub fn compile_mini_tracker() -> Result<CompiledProgram, String> {
    compile_source(&mini_tracker_registry(), MINI_TRACKER_ML).map_err(|d| d.render(MINI_TRACKER_ML))
}

/// Compiles the miniature tracker and prepares it on `sim`: lowering,
/// SynDEx scheduling and macro-code generation happen here, once. The
/// executable's `statics()` carry the network, schedule and macro-code.
///
/// # Errors
///
/// Compiler diagnostics and preparation failures, as strings.
pub fn prepare_mini_tracker(
    sim: &SimBackend,
) -> Result<(CompiledProgram, SimLoopExecutable<Value, Value, Value>), String> {
    let prog = compile_mini_tracker()?;
    let exec = Backend::<_, Vec<Value>>::prepare(sim, &prog.loop_program());
    exec.statics().map_err(|e| e.to_string())?;
    Ok((prog, exec))
}

/// Runs the compiled miniature tracker on `sim` for `frames` frames;
/// returns the displayed values and the executive report.
///
/// # Errors
///
/// Propagates compilation, scheduling and executive failures as strings.
pub fn simulate_mini_tracker(
    sim: &SimBackend,
    frames: usize,
) -> Result<(Vec<i64>, ExecReport), String> {
    let (prog, exec) = prepare_mini_tracker(sim)?;
    let ((_, shown), report) = exec
        .run_with_report(prog.frames(frames))
        .map_err(|e| e.to_string())?;
    Ok((shown.iter().map(int).collect(), report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emulation_and_simulation_agree_bit_for_bit() {
        let emu = emulate_mini_tracker(5).unwrap();
        let (sim1, _) = simulate_mini_tracker(&SimBackend::ring(1), 5).unwrap();
        let (sim5, _) = simulate_mini_tracker(&SimBackend::ring(5), 5).unwrap();
        assert_eq!(emu.len(), 5);
        assert_eq!(emu, sim1, "sequential emulation == single-proc executive");
        assert_eq!(emu, sim5, "sequential emulation == 5-proc executive");
    }

    #[test]
    fn parallel_run_is_faster_than_sequential_run() {
        let (_, r1) = simulate_mini_tracker(&SimBackend::ring(1), 4).unwrap();
        let (_, r5) = simulate_mini_tracker(&SimBackend::ring(5), 4).unwrap();
        assert!(r5.sim.end_ns < r1.sim.end_ns);
    }
}
