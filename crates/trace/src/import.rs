//! CSV trace importer: the inverse of [`Trace::to_csv`], so a recorded
//! trace can be re-analyzed offline (`msccl profile --from-trace`).

use mscclang::OpCode;

use crate::event::{EventKind, RecoveryDecision, TraceEvent};
use crate::{ClockDomain, Trace};

fn parse<T: std::str::FromStr>(cell: &str, what: &str, line_no: usize) -> Result<T, String> {
    cell.parse()
        .map_err(|_| format!("line {line_no}: bad {what} {cell:?}"))
}

impl Trace {
    /// Parses a trace previously rendered by [`Trace::to_csv`]. The CSV
    /// does not record the clock domain, so the caller states it.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed row: wrong column
    /// count, unknown event kind, or an unparsable field.
    pub fn from_csv(text: &str, domain: ClockDomain) -> Result<Self, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, header))
                if header.trim() == "ts_us,rank,tb,kind,step,tile,op,peer,channel,seq,value" => {}
            Some((_, header)) => return Err(format!("unrecognized CSV header {header:?}")),
            None => return Err("empty CSV".to_string()),
        }
        let mut events = Vec::new();
        for (i, line) in lines {
            let line_no = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            let cells: Vec<&str> = line.split(',').collect();
            if cells.len() != 11 {
                return Err(format!(
                    "line {line_no}: expected 11 columns, found {}",
                    cells.len()
                ));
            }
            let (ts, rank, tb, kind) = (cells[0], cells[1], cells[2], cells[3]);
            let (step, tile, op) = (cells[4], cells[5], cells[6]);
            let (peer, channel, seq, value) = (cells[7], cells[8], cells[9], cells[10]);
            let instr = |what| -> Result<(usize, usize, OpCode), String> {
                Ok((
                    parse(step, "step", line_no)?,
                    parse(tile, "tile", line_no)?,
                    OpCode::parse(op)
                        .ok_or_else(|| format!("line {line_no}: bad {what} op {op:?}"))?,
                ))
            };
            let kind = match kind {
                "kernel_launch" => EventKind::KernelLaunch,
                "tile_begin" => EventKind::TileBegin {
                    tile: parse(tile, "tile", line_no)?,
                },
                "tile_end" => EventKind::TileEnd {
                    tile: parse(tile, "tile", line_no)?,
                },
                "instr_begin" => {
                    let (step, tile, op) = instr("instr_begin")?;
                    EventKind::InstrBegin { step, tile, op }
                }
                "instr_end" => {
                    let (step, tile, op) = instr("instr_end")?;
                    EventKind::InstrEnd { step, tile, op }
                }
                "sem_wait_enter" => EventKind::SemWaitEnter {
                    dep_tb: parse(peer, "dep_tb", line_no)?,
                    target: parse(value, "target", line_no)?,
                },
                "sem_wait_exit" => EventKind::SemWaitExit {
                    dep_tb: parse(peer, "dep_tb", line_no)?,
                    target: parse(value, "target", line_no)?,
                },
                "sem_set" => EventKind::SemSet {
                    value: parse(value, "value", line_no)?,
                },
                "send_block" => EventKind::SendBlock {
                    dst: parse(peer, "dst", line_no)?,
                    channel: parse(channel, "channel", line_no)?,
                },
                "send_resume" => EventKind::SendResume {
                    dst: parse(peer, "dst", line_no)?,
                    channel: parse(channel, "channel", line_no)?,
                },
                "send" => EventKind::Send {
                    dst: parse(peer, "dst", line_no)?,
                    channel: parse(channel, "channel", line_no)?,
                    seq: parse(seq, "seq", line_no)?,
                    bytes: parse(value, "bytes", line_no)?,
                },
                "recv_block" => EventKind::RecvBlock {
                    src: parse(peer, "src", line_no)?,
                    channel: parse(channel, "channel", line_no)?,
                },
                "recv_resume" => EventKind::RecvResume {
                    src: parse(peer, "src", line_no)?,
                    channel: parse(channel, "channel", line_no)?,
                },
                "recv" => EventKind::Recv {
                    src: parse(peer, "src", line_no)?,
                    channel: parse(channel, "channel", line_no)?,
                    seq: parse(seq, "seq", line_no)?,
                    bytes: parse(value, "bytes", line_no)?,
                },
                "pool_stats" => EventKind::PoolStats {
                    allocated: parse(seq, "allocated", line_no)?,
                    reused: parse(value, "reused", line_no)?,
                },
                "recovery" => EventKind::Recovery {
                    attempt: parse(step, "attempt", line_no)?,
                    decision: match value {
                        "accept" => RecoveryDecision::Accept,
                        "retry" => RecoveryDecision::Retry,
                        "fallback" => RecoveryDecision::Fallback,
                        other => {
                            return Err(format!("line {line_no}: bad recovery decision {other:?}"))
                        }
                    },
                },
                other => return Err(format!("line {line_no}: unknown event kind {other:?}")),
            };
            events.push(TraceEvent {
                ts_us: parse(ts, "ts_us", line_no)?,
                rank: parse(rank, "rank", line_no)?,
                tb: parse(tb, "tb", line_no)?,
                kind,
            });
        }
        Ok(Trace::from_buffers(domain, vec![events]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event kind survives a CSV round trip (timestamps to the
    /// exporter's three-decimal precision).
    #[test]
    fn csv_round_trips_every_kind() {
        let kinds = vec![
            EventKind::KernelLaunch,
            EventKind::TileBegin { tile: 1 },
            EventKind::InstrBegin {
                step: 0,
                tile: 1,
                op: OpCode::RecvReduceCopySend,
            },
            EventKind::SemWaitEnter {
                dep_tb: 2,
                target: 7,
            },
            EventKind::SemWaitExit {
                dep_tb: 2,
                target: 7,
            },
            EventKind::SendBlock { dst: 3, channel: 1 },
            EventKind::SendResume { dst: 3, channel: 1 },
            EventKind::Send {
                dst: 3,
                channel: 1,
                seq: 0,
                bytes: 4096,
            },
            EventKind::RecvBlock { src: 0, channel: 2 },
            EventKind::RecvResume { src: 0, channel: 2 },
            EventKind::Recv {
                src: 0,
                channel: 2,
                seq: 5,
                bytes: 128,
            },
            EventKind::SemSet { value: 9 },
            EventKind::InstrEnd {
                step: 0,
                tile: 1,
                op: OpCode::RecvReduceCopySend,
            },
            EventKind::TileEnd { tile: 1 },
            EventKind::PoolStats {
                allocated: 4,
                reused: 40,
            },
            EventKind::Recovery {
                attempt: 1,
                decision: RecoveryDecision::Retry,
            },
        ];
        let events: Vec<TraceEvent> = kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                ts_us: i as f64 * 1.5,
                rank: 1,
                tb: 2,
                kind,
            })
            .collect();
        let trace = Trace::from_buffers(ClockDomain::Wall, vec![events]);
        let parsed = Trace::from_csv(&trace.to_csv(), ClockDomain::Wall).expect("parses");
        assert_eq!(parsed, trace);
    }

    #[test]
    fn malformed_rows_are_rejected() {
        assert!(Trace::from_csv("", ClockDomain::Wall).is_err());
        assert!(Trace::from_csv("nonsense header\n", ClockDomain::Wall).is_err());
        let header = "ts_us,rank,tb,kind,step,tile,op,peer,channel,seq,value\n";
        let short = format!("{header}0.0,0,0,send,,,\n");
        assert!(Trace::from_csv(&short, ClockDomain::Wall)
            .unwrap_err()
            .contains("11 columns"));
        let bad_kind = format!("{header}0.0,0,0,warp_drive,,,,,,,\n");
        assert!(Trace::from_csv(&bad_kind, ClockDomain::Wall)
            .unwrap_err()
            .contains("unknown event kind"));
        let bad_bytes = format!("{header}0.0,0,0,send,,,,1,0,0,many\n");
        assert!(Trace::from_csv(&bad_bytes, ClockDomain::Wall)
            .unwrap_err()
            .contains("bad bytes"));
    }
}
