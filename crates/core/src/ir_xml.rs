//! MSCCL-IR XML serialization.
//!
//! The reference MSCCL runtime consumes algorithms as XML files; this
//! module writes and reads the same tree shape (`<algo>` / `<gpu>` /
//! `<tb>` / `<step>`), extended with enough collective metadata
//! (`coll`, `inchunks`, `outchunks`, `inplace`, `root`) to reconstruct the
//! pre/postconditions of every standard collective on load. Custom
//! collectives serialize, but cannot be re-verified after parsing because
//! their postcondition is not part of the format.
//!
//! No external XML dependency is used; the grammar emitted here (elements
//! with double-quoted attributes, no text content) is parsed by a small
//! built-in reader.

use std::collections::HashMap;
use std::fmt::Write as _;

use msccl_topology::Protocol;

use crate::buffer::BufferKind;
use crate::collective::Collective;
use crate::error::{Error, Result};
use crate::ir::{IrDep, IrGpu, IrInstruction, IrLoc, IrProgram, IrThreadBlock, OpCode};

/// Serializes a program to MSCCL-IR XML.
#[must_use]
pub fn to_xml(ir: &IrProgram) -> String {
    let mut out = String::new();
    let c = &ir.collective;
    let _ = writeln!(
        out,
        r#"<algo name="{}" proto="{}" nchannels="{}" ngpus="{}" coll="{}" inchunks="{}" outchunks="{}" inplace="{}" root="{}" refinement="{}">"#,
        escape(&ir.name),
        ir.protocol.map_or("none", Protocol::as_str),
        ir.num_channels,
        ir.num_ranks(),
        c.kind(),
        c.in_chunks(),
        c.out_chunks(),
        u8::from(c.inplace()),
        c.root().map_or(-1, |r| r as i64),
        ir.refinement,
    );
    for gpu in &ir.gpus {
        let _ = writeln!(
            out,
            r#"  <gpu id="{}" i_chunks="{}" o_chunks="{}" s_chunks="{}">"#,
            gpu.rank, gpu.input_chunks, gpu.output_chunks, gpu.scratch_chunks
        );
        for tb in &gpu.threadblocks {
            let _ = writeln!(
                out,
                r#"    <tb id="{}" send="{}" recv="{}" chan="{}">"#,
                tb.id,
                tb.send_peer.map_or(-1, |p| p as i64),
                tb.recv_peer.map_or(-1, |p| p as i64),
                tb.channel
            );
            for i in &tb.instructions {
                let (srcbuf, srcoff) = loc_attrs(i.src);
                let (dstbuf, dstoff) = loc_attrs(i.dst);
                let depid = join_list(i.deps.iter().map(|d| d.tb));
                let deps = join_list(i.deps.iter().map(|d| d.step));
                let _ = writeln!(
                    out,
                    r#"      <step s="{}" type="{}" srcbuf="{}" srcoff="{}" dstbuf="{}" dstoff="{}" cnt="{}" depid="{}" deps="{}" hasdep="{}"/>"#,
                    i.step,
                    i.op.mnemonic(),
                    srcbuf,
                    srcoff,
                    dstbuf,
                    dstoff,
                    i.count,
                    depid,
                    deps,
                    u8::from(i.has_dep)
                );
            }
            let _ = writeln!(out, "    </tb>");
        }
        let _ = writeln!(out, "  </gpu>");
    }
    let _ = writeln!(out, "</algo>");
    out
}

fn loc_attrs(loc: Option<IrLoc>) -> (&'static str, i64) {
    match loc {
        Some(l) => (l.buffer.short_name(), l.index as i64),
        None => ("-", -1),
    }
}

fn join_list<I: Iterator<Item = usize>>(items: I) -> String {
    let v: Vec<String> = items.map(|x| x.to_string()).collect();
    if v.is_empty() {
        "-1".to_owned()
    } else {
        v.join(",")
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn unescape(s: &str) -> String {
    s.replace("&quot;", "\"")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&amp;", "&")
}

// ---------------------------------------------------------------------------
// Parsing

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    /// `<name attr="v" ...>` — `self_closing` for `<.../>`.
    Open {
        name: String,
        attrs: HashMap<String, String>,
        self_closing: bool,
    },
    /// `</name>`
    Close(String),
}

fn parse_err(message: impl Into<String>) -> Error {
    Error::Parse {
        message: message.into(),
    }
}

fn tokenize(xml: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes = xml.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i].is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if bytes[i] != b'<' {
            return Err(parse_err(format!("unexpected text at byte {i}")));
        }
        let end = xml[i..]
            .find('>')
            .map(|e| i + e)
            .ok_or_else(|| parse_err("unterminated element"))?;
        let inner = &xml[i + 1..end];
        i = end + 1;
        if let Some(name) = inner.strip_prefix('/') {
            tokens.push(Token::Close(name.trim().to_owned()));
            continue;
        }
        let (inner, self_closing) = match inner.strip_suffix('/') {
            Some(s) => (s, true),
            None => (inner, false),
        };
        let mut parts = inner.splitn(2, char::is_whitespace);
        let name = parts.next().unwrap_or("").to_owned();
        if name.is_empty() {
            return Err(parse_err("element with empty name"));
        }
        let mut attrs = HashMap::new();
        let rest = parts.next().unwrap_or("").trim();
        let mut r = rest;
        while !r.is_empty() {
            let eq = r
                .find('=')
                .ok_or_else(|| parse_err("attribute missing '='"))?;
            let key = r[..eq].trim().to_owned();
            let after = r[eq + 1..].trim_start();
            let mut chars = after.char_indices();
            match chars.next() {
                Some((_, '"')) => {}
                _ => return Err(parse_err("attribute value must be double-quoted")),
            }
            let close = after[1..]
                .find('"')
                .ok_or_else(|| parse_err("unterminated attribute value"))?;
            let value = unescape(&after[1..1 + close]);
            attrs.insert(key, value);
            r = after[close + 2..].trim_start();
        }
        tokens.push(Token::Open {
            name,
            attrs,
            self_closing,
        });
    }
    Ok(tokens)
}

struct Attrs<'a>(&'a HashMap<String, String>);

impl Attrs<'_> {
    fn str(&self, key: &str) -> Result<&str> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| parse_err(format!("missing attribute '{key}'")))
    }

    fn usize(&self, key: &str) -> Result<usize> {
        self.str(key)?
            .parse()
            .map_err(|_| parse_err(format!("attribute '{key}' is not a non-negative integer")))
    }

    fn isize(&self, key: &str) -> Result<i64> {
        self.str(key)?
            .parse()
            .map_err(|_| parse_err(format!("attribute '{key}' is not an integer")))
    }

    fn opt_rank(&self, key: &str) -> Result<Option<usize>> {
        let v = self.isize(key)?;
        Ok((v >= 0).then_some(v as usize))
    }
}

fn parse_loc(buf: &str, off: i64) -> Result<Option<IrLoc>> {
    if buf == "-" {
        return Ok(None);
    }
    let buffer =
        BufferKind::parse(buf).ok_or_else(|| parse_err(format!("unknown buffer name '{buf}'")))?;
    if off < 0 {
        return Err(parse_err("negative offset with a named buffer"));
    }
    Ok(Some(IrLoc {
        buffer,
        index: off as usize,
    }))
}

fn parse_deps(depid: &str, deps: &str) -> Result<Vec<IrDep>> {
    if depid == "-1" {
        return Ok(Vec::new());
    }
    let ids: Vec<usize> = depid
        .split(',')
        .map(|s| s.parse().map_err(|_| parse_err("bad depid list")))
        .collect::<Result<_>>()?;
    let steps: Vec<usize> = deps
        .split(',')
        .map(|s| s.parse().map_err(|_| parse_err("bad deps list")))
        .collect::<Result<_>>()?;
    if ids.len() != steps.len() {
        return Err(parse_err("depid and deps lists differ in length"));
    }
    Ok(ids
        .into_iter()
        .zip(steps)
        .map(|(tb, step)| IrDep { tb, step })
        .collect())
}

fn rebuild_collective(
    kind: &str,
    num_ranks: usize,
    in_chunks: usize,
    out_chunks: usize,
    inplace: bool,
    root: Option<usize>,
) -> Result<Collective> {
    let bad = |msg: &str| parse_err(format!("collective '{kind}': {msg}"));
    if num_ranks == 0 || in_chunks == 0 || out_chunks == 0 {
        return Err(bad("dimensions must be positive"));
    }
    if root.is_some_and(|r| r >= num_ranks) {
        return Err(bad("root out of range"));
    }
    let coll =
        match kind {
            "allreduce" => Collective::all_reduce(num_ranks, in_chunks, inplace),
            "allgather" => Collective::all_gather(num_ranks, in_chunks, inplace),
            "reduce_scatter" => Collective::reduce_scatter(num_ranks, out_chunks, inplace),
            "alltoall" => {
                if !in_chunks.is_multiple_of(num_ranks) {
                    return Err(bad("inchunks not divisible by ngpus"));
                }
                Collective::all_to_all(num_ranks, in_chunks / num_ranks)
            }
            "alltonext" => Collective::all_to_next(num_ranks, in_chunks),
            "broadcast" => Collective::broadcast(
                num_ranks,
                in_chunks,
                root.ok_or_else(|| bad("missing root"))?,
            ),
            "reduce" => Collective::reduce(
                num_ranks,
                in_chunks,
                root.ok_or_else(|| bad("missing root"))?,
            ),
            "gather" => Collective::gather(
                num_ranks,
                in_chunks,
                root.ok_or_else(|| bad("missing root"))?,
            ),
            "scatter" => Collective::scatter(
                num_ranks,
                out_chunks,
                root.ok_or_else(|| bad("missing root"))?,
            ),
            "custom" => return Err(parse_err(
                "custom collectives cannot be reconstructed from XML (postcondition not stored)",
            )),
            other => return Err(parse_err(format!("unknown collective kind '{other}'"))),
        };
    if coll.in_chunks() != in_chunks || coll.out_chunks() != out_chunks {
        return Err(bad("chunk counts inconsistent with collective shape"));
    }
    Ok(coll)
}

/// Parses MSCCL-IR XML back into a program.
///
/// # Errors
///
/// Returns [`Error::Parse`] on malformed input, and structural errors from
/// [`IrProgram::check_structure`] on well-formed but invalid programs.
pub fn from_xml(xml: &str) -> Result<IrProgram> {
    let tokens = tokenize(xml)?;
    let mut iter = tokens.into_iter().peekable();

    let Some(Token::Open {
        name,
        attrs,
        self_closing: false,
    }) = iter.next()
    else {
        return Err(parse_err("expected <algo> root element"));
    };
    if name != "algo" {
        return Err(parse_err(format!("expected <algo>, found <{name}>")));
    }
    let a = Attrs(&attrs);
    let prog_name = a.str("name")?.to_owned();
    let protocol = match a.str("proto")? {
        "none" => None,
        p => Some(Protocol::parse(p).ok_or_else(|| parse_err(format!("unknown protocol '{p}'")))?),
    };
    let num_channels = a.usize("nchannels")?;
    let num_ranks = a.usize("ngpus")?;
    let refinement = a.usize("refinement")?;
    let collective = rebuild_collective(
        a.str("coll")?,
        num_ranks,
        a.usize("inchunks")?,
        a.usize("outchunks")?,
        a.str("inplace")? == "1",
        a.opt_rank("root")?,
    )?;

    let mut gpus: Vec<IrGpu> = Vec::new();
    loop {
        match iter.next() {
            Some(Token::Close(n)) if n == "algo" => break,
            // Epoch cuts, which earlier compilers annotated, are skipped
            // unread.
            Some(Token::Open {
                name,
                self_closing: true,
                ..
            }) if name == "epoch" => {}
            Some(Token::Open {
                name,
                attrs,
                self_closing: false,
            }) if name == "gpu" => {
                let a = Attrs(&attrs);
                let mut gpu = IrGpu {
                    rank: a.usize("id")?,
                    input_chunks: a.usize("i_chunks")?,
                    output_chunks: a.usize("o_chunks")?,
                    scratch_chunks: a.usize("s_chunks")?,
                    threadblocks: Vec::new(),
                };
                loop {
                    match iter.next() {
                        Some(Token::Close(n)) if n == "gpu" => break,
                        Some(Token::Open {
                            name,
                            attrs,
                            self_closing: false,
                        }) if name == "tb" => {
                            let a = Attrs(&attrs);
                            let mut tb = IrThreadBlock {
                                id: a.usize("id")?,
                                send_peer: a.opt_rank("send")?,
                                recv_peer: a.opt_rank("recv")?,
                                channel: a.usize("chan")?,
                                instructions: Vec::new(),
                            };
                            loop {
                                match iter.next() {
                                    Some(Token::Close(n)) if n == "tb" => break,
                                    Some(Token::Open {
                                        name,
                                        attrs,
                                        self_closing: true,
                                    }) if name == "step" => {
                                        let a = Attrs(&attrs);
                                        let op_str = a.str("type")?;
                                        let op = OpCode::parse(op_str).ok_or_else(|| {
                                            parse_err(format!("unknown opcode '{op_str}'"))
                                        })?;
                                        tb.instructions.push(IrInstruction {
                                            step: a.usize("s")?,
                                            op,
                                            src: parse_loc(a.str("srcbuf")?, a.isize("srcoff")?)?,
                                            dst: parse_loc(a.str("dstbuf")?, a.isize("dstoff")?)?,
                                            count: a.usize("cnt")?,
                                            deps: parse_deps(a.str("depid")?, a.str("deps")?)?,
                                            has_dep: a.str("hasdep")? == "1",
                                        });
                                    }
                                    other => {
                                        return Err(parse_err(format!(
                                            "unexpected token inside <tb>: {other:?}"
                                        )))
                                    }
                                }
                            }
                            gpu.threadblocks.push(tb);
                        }
                        other => {
                            return Err(parse_err(format!(
                                "unexpected token inside <gpu>: {other:?}"
                            )))
                        }
                    }
                }
                gpus.push(gpu);
            }
            other => {
                return Err(parse_err(format!(
                    "unexpected token inside <algo>: {other:?}"
                )))
            }
        }
    }
    if gpus.len() != num_ranks {
        return Err(parse_err(format!(
            "ngpus={num_ranks} but found {} <gpu> elements",
            gpus.len()
        )));
    }
    gpus.sort_by_key(|g| g.rank);

    let ir = IrProgram {
        name: prog_name,
        collective,
        protocol,
        num_channels,
        refinement,
        gpus,
        epoch_cuts: Vec::new(),
    };
    ir.check_structure()?;
    Ok(ir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferKind;
    use crate::compile::{compile, CompileOptions};
    use crate::program::Program;

    fn sample_ir() -> IrProgram {
        let mut p = Program::new("rag", Collective::all_gather(3, 1, false));
        p.set_protocol(Protocol::Ll128);
        for r in 0..3 {
            let c = p.chunk(r, BufferKind::Input, 0, 1).unwrap();
            let mut c = p.copy(&c, r, BufferKind::Output, r).unwrap();
            for step in 1..3 {
                let next = (r + step) % 3;
                c = p.copy(&c, next, BufferKind::Output, r).unwrap();
            }
        }
        compile(&p, &CompileOptions::default().with_instances(2)).unwrap()
    }

    #[test]
    fn xml_round_trips() {
        let ir = sample_ir();
        let xml = to_xml(&ir);
        let parsed = from_xml(&xml).unwrap();
        assert_eq!(parsed, ir);
    }

    #[test]
    fn parsed_program_still_verifies() {
        let ir = sample_ir();
        let parsed = from_xml(&to_xml(&ir)).unwrap();
        crate::verify::check(&parsed, &crate::verify::VerifyOptions::default()).unwrap();
    }

    #[test]
    fn xml_contains_expected_structure() {
        let xml = to_xml(&sample_ir());
        assert!(xml.contains(r#"<algo name="rag" proto="LL128""#));
        assert!(xml.contains(r#"coll="allgather""#));
        assert!(xml.contains("<gpu id=\"0\""));
        assert!(xml.contains("<tb id=\"0\""));
        assert!(xml.contains("type=\"s\""));
    }

    #[test]
    fn rejects_malformed_xml() {
        assert!(from_xml("<algo").is_err());
        assert!(from_xml("<wrong/>").is_err());
        assert!(from_xml("<algo name=\"x\"></algo>").is_err()); // missing attrs
    }

    #[test]
    fn rejects_unknown_opcode() {
        let xml = to_xml(&sample_ir()).replace("type=\"s\"", "type=\"zap\"");
        let err = from_xml(&xml).unwrap_err();
        assert!(err.to_string().contains("unknown opcode"));
    }

    #[test]
    fn escaping_round_trips_names() {
        let mut ir = sample_ir();
        ir.name = "a<b>&\"c\"".to_owned();
        let parsed = from_xml(&to_xml(&ir)).unwrap();
        assert_eq!(parsed.name, ir.name);
    }

    #[test]
    fn rebuilds_every_standard_collective() {
        for (kind, coll) in [
            ("allreduce", Collective::all_reduce(4, 2, true)),
            ("allgather", Collective::all_gather(4, 2, false)),
            ("reduce_scatter", Collective::reduce_scatter(4, 2, false)),
            ("alltoall", Collective::all_to_all(4, 2)),
            ("alltonext", Collective::all_to_next(4, 2)),
            ("broadcast", Collective::broadcast(4, 2, 1)),
            ("reduce", Collective::reduce(4, 2, 1)),
            ("gather", Collective::gather(4, 2, 1)),
            ("scatter", Collective::scatter(4, 2, 1)),
        ] {
            let rebuilt = rebuild_collective(
                kind,
                4,
                coll.in_chunks(),
                coll.out_chunks(),
                coll.inplace(),
                coll.root(),
            )
            .unwrap();
            assert_eq!(rebuilt, coll, "{kind}");
        }
    }
}
