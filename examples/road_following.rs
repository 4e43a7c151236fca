//! Road following by white-line detection with the scm skeleton
//! (paper ref [6]).
//!
//! ```text
//! cargo run --release --example road_following
//! ```

use skipper::PoolBackend;
use skipper_apps::road::{detect_line_on, lane_offset};
use skipper_vision::synth::render_road_frame;

fn main() {
    let pool = PoolBackend::new();
    println!("frame  true offset(px)  estimated offset(px)  steering");
    for k in 0..10 {
        // The lane marking drifts sinusoidally; the controller must follow.
        let off = 60.0 * (k as f64 * 0.5).sin();
        let (img, _) = render_road_frame(512, 384, off, 0.08, k);
        let line = detect_line_on(&pool, &img, 4).expect("marking visible");
        let est = lane_offset(&line, 512, 384);
        let steer = if est > 5.0 {
            "steer right"
        } else if est < -5.0 {
            "steer left"
        } else {
            "hold"
        };
        println!("{k:>5}  {off:>15.1}  {est:>20.1}  {steer}");
    }
}
