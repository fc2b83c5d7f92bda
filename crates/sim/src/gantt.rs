//! ASCII Gantt charts of simulation traces.
//!
//! Renders each processor's port activity on a shared time axis:
//! `S` = output port busy sending, `R` = input port busy receiving,
//! `B` = both at once (the model's *simultaneous I/O*), `·` = idle.
//! Used by the examples and the `postal-cli` tool to make schedules
//! visible — the paper's Figure 1 as a timeline instead of a tree.
//!
//! The rendering itself lives in [`postal_obs::gantt`], which consumes
//! the observability span stream; this module adapts a [`Trace`] to it.

use crate::trace::Trace;

/// Renders a trace as an ASCII Gantt chart with `cells_per_unit` columns
/// per time unit.
///
/// ```
/// use postal_sim::gantt::render_gantt;
/// use postal_sim::Trace;
///
/// let trace: Trace<()> = Trace::new();
/// let art = render_gantt(&trace, 2, 1);
/// assert!(art.contains("p0"));
/// assert!(art.contains("p1"));
/// ```
///
/// # Panics
/// Panics if `cells_per_unit == 0` or `n == 0`.
pub fn render_gantt<P>(trace: &Trace<P>, n: usize, cells_per_unit: u32) -> String {
    postal_obs::gantt::render_spans(
        n,
        &trace.port_spans(),
        trace.completion_time(),
        cells_per_unit,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ProcId, SendSeq};
    use crate::trace::Transfer;
    use postal_model::Time;

    fn transfer(src: u32, dst: u32, start: i128, lam_num: i128, lam_den: i128) -> Transfer<()> {
        let send_start = Time::from_int(start);
        let lam = Time::new(lam_num, lam_den);
        Transfer {
            seq: SendSeq(0),
            src: ProcId(src),
            dst: ProcId(dst),
            send_start,
            arrival: send_start + lam - Time::ONE,
            recv_start: send_start + lam - Time::ONE,
            payload: (),
        }
    }

    #[test]
    fn renders_send_and_receive_marks() {
        let mut trace = Trace::new();
        trace.push(transfer(0, 1, 0, 2, 1));
        let art = render_gantt(&trace, 2, 2);
        let lines: Vec<&str> = art.lines().collect();
        // p0 sends during [0,1): first two cells S.
        assert!(lines[1].contains("S"));
        // p1 receives during [1,2): cells 2..4 R.
        assert!(lines[2].contains("R"));
        assert!(art.contains("completion t = 2"));
    }

    #[test]
    fn simultaneous_io_marked_as_both() {
        let mut trace = Trace::new();
        // p1 receives during [1, 2) and sends during [1, 2): B cells.
        trace.push(transfer(0, 1, 0, 2, 1));
        trace.push(transfer(1, 0, 1, 2, 1));
        let art = render_gantt(&trace, 2, 2);
        assert!(art.contains('B'), "expected overlap marker in:\n{art}");
    }

    #[test]
    fn empty_trace_renders_minimal_grid() {
        let trace: Trace<()> = Trace::new();
        let art = render_gantt(&trace, 3, 1);
        assert_eq!(art.lines().count(), 5); // axis + 3 procs + footer
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn zero_resolution_panics() {
        let trace: Trace<()> = Trace::new();
        let _ = render_gantt(&trace, 1, 0);
    }
}
