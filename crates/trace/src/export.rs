//! Trace exporters: Chrome trace-event JSON and a plain-text event log.
//!
//! The Chrome format is the `{"traceEvents": [...]}` JSON object consumed
//! by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): open the
//! UI and drag the file in. Every traced component gets its own named
//! track (`tid` = component id, with a `thread_name` metadata record), and
//! NoC messages carry flow arrows (`s`/`t`/`f` events keyed by the
//! transaction id stamped at injection) so a coherence message can be
//! followed hop by hop across router tracks.

use crate::{mesi, unpack_hop, unpack_mesi, unpack_noc, EventKind, TraceEvent};

/// Duration given to slice events, in microseconds. Most traced actions
/// occupy one fast-clock cycle (1 ns at 1 GHz); drawing them as 1 ns
/// slices keeps tracks readable at typical zoom levels.
const SLICE_US: f64 = 0.001;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn ts_us(ts_ps: u64) -> f64 {
    ts_ps as f64 / 1_000_000.0
}

fn comp_name(names: &[String], comp: u16) -> String {
    names
        .get(comp as usize)
        .cloned()
        .unwrap_or_else(|| format!("comp{comp}"))
}

/// Human-readable `name` and `args` fragment for one event.
fn describe(ev: &TraceEvent) -> (String, String) {
    let Some(kind) = EventKind::from_u8(ev.kind) else {
        return (
            format!("unknown#{}", ev.kind),
            format!("\"a\":{},\"b\":{}", ev.a, ev.b),
        );
    };
    match kind {
        EventKind::NocInject | EventKind::NocEject => {
            let (src, dst, vnet, flits) = unpack_noc(ev.b);
            (
                format!("{} {}#{}", kind.label(), vnet_label(vnet), ev.a),
                format!(
                    "\"txn\":{},\"src\":{src},\"dst\":{dst},\"vnet\":\"{}\",\"flits\":{flits}",
                    ev.a,
                    vnet_label(vnet)
                ),
            )
        }
        EventKind::NocRoute => {
            let (node, port, vnet) = unpack_hop(ev.b);
            (
                format!("{} {}#{}", kind.label(), vnet_label(vnet), ev.a),
                format!(
                    "\"txn\":{},\"node\":{node},\"out_port\":{port},\"vnet\":\"{}\"",
                    ev.a,
                    vnet_label(vnet)
                ),
            )
        }
        EventKind::MesiTransition => {
            let (old, new, peer) = unpack_mesi(ev.b);
            (
                format!("{}→{}", mesi::label(old), mesi::label(new)),
                format!(
                    "\"line\":\"{:#x}\",\"from\":\"{}\",\"to\":\"{}\",\"peer\":{peer}",
                    ev.a,
                    mesi::label(old),
                    mesi::label(new)
                ),
            )
        }
        EventKind::HorizonSkip => (
            kind.label().to_string(),
            format!("\"fast_skipped\":{},\"slow_skipped\":{}", ev.a, ev.b),
        ),
        _ => (
            kind.label().to_string(),
            format!("\"a\":{},\"b\":{}", ev.a, ev.b),
        ),
    }
}

fn vnet_label(vnet: usize) -> &'static str {
    match vnet {
        0 => "req",
        1 => "fwd",
        2 => "resp",
        _ => "vnet?",
    }
}

/// Renders events as Chrome trace-event JSON. `names` maps component ids
/// to track names; `dropped` (ring overflow count) is recorded in the
/// process metadata so a truncated trace is visibly truncated.
pub fn chrome_trace(events: &[TraceEvent], names: &[String], dropped: u64) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 1024);
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"duet-sim (dropped_events={dropped})\"}}}}"
    ));
    for (id, name) in names.iter().enumerate() {
        out.push_str(&format!(
            ",\n{{\"ph\":\"M\",\"pid\":0,\"tid\":{id},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }
    for ev in events {
        let (name, args) = describe(ev);
        let ts = ts_us(ev.ts_ps);
        let cat = EventKind::from_u8(ev.kind).map_or("unknown", |k| k.label());
        out.push_str(&format!(
            ",\n{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{ts:.6},\"dur\":{SLICE_US:.6},\"name\":\"{}\",\"cat\":\"{cat}\",\"args\":{{{args}}}}}",
            ev.comp,
            esc(&name)
        ));
        // Flow arrows across NoC hops: the transaction id stamped at
        // injection binds an `s` (start) at the inject slice, `t` (step)
        // at each route slice, and `f` (finish) at the eject slice.
        let flow_ph = match EventKind::from_u8(ev.kind) {
            Some(EventKind::NocInject) => Some("s"),
            Some(EventKind::NocRoute) => Some("t"),
            Some(EventKind::NocEject) => Some("f"),
            _ => None,
        };
        if let Some(ph) = flow_ph {
            let bp = if ph == "f" { ",\"bp\":\"e\"" } else { "" };
            out.push_str(&format!(
                ",\n{{\"ph\":\"{ph}\",\"pid\":0,\"tid\":{},\"ts\":{ts:.6},\"id\":{},\"name\":\"noc-txn\",\"cat\":\"noc\"{bp}}}",
                ev.comp, ev.a
            ));
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// Renders events as a plain-text log, one line per event:
/// `<ts_ps> <component> <kind> <details>`.
pub fn text_log(events: &[TraceEvent], names: &[String], dropped: u64) -> String {
    let mut out = String::with_capacity(events.len() * 64 + 128);
    out.push_str(&format!(
        "# duet-trace text log: {} events retained, {} dropped\n",
        events.len(),
        dropped
    ));
    for ev in events {
        let (name, _) = describe(ev);
        out.push_str(&format!(
            "{:>12} {:<16} {}\n",
            ev.ts_ps,
            comp_name(names, ev.comp),
            name
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pack_noc, EventKind, TraceEvent};

    fn ev(ts: u64, comp: u16, kind: EventKind, a: u64, b: u64) -> TraceEvent {
        TraceEvent {
            ts_ps: ts,
            comp,
            kind: kind as u8,
            a,
            b,
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_tracks_and_flows() {
        let names = vec!["runloop".to_string(), "mesh".to_string()];
        let events = vec![
            ev(1000, 0, EventKind::EdgeFast, 1, 0),
            ev(1000, 1, EventKind::NocInject, 42, pack_noc(0, 3, 0, 2)),
            ev(2000, 1, EventKind::NocRoute, 42, crate::pack_hop(0, 2, 0)),
            ev(3000, 1, EventKind::NocEject, 42, pack_noc(0, 3, 0, 2)),
        ];
        // JSON validity is checked in `tests/trace_differential.rs`, which
        // parses the output with the service's JSON parser.
        let json = chrome_trace(&events, &names, 0);
        // Named per-component tracks.
        assert!(json.contains("\"thread_name\",\"args\":{\"name\":\"mesh\"}"));
        assert!(json.contains("\"thread_name\",\"args\":{\"name\":\"runloop\"}"));
        // Flow arrow start/step/finish keyed by the transaction id.
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"t\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("\"id\":42"));
    }

    #[test]
    fn text_log_mentions_drops_and_kinds() {
        let names = vec!["l3@n0".to_string()];
        let events = vec![ev(
            5000,
            0,
            EventKind::MesiTransition,
            0x40,
            crate::pack_mesi(0, 2, 1),
        )];
        let log = text_log(&events, &names, 7);
        assert!(log.contains("7 dropped"));
        assert!(log.contains("l3@n0"));
        assert!(log.contains("I→E/M"));
    }

    #[test]
    fn names_are_escaped() {
        let names = vec!["weird\"name\\".to_string(), "ctl\u{1}".to_string()];
        let json = chrome_trace(&[], &names, 0);
        assert!(json.contains(r#""args":{"name":"weird\"name\\"}"#));
        assert!(json.contains(r#""args":{"name":"ctl\u0001"}"#));
    }
}
