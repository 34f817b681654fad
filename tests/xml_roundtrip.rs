//! MSCCL-IR XML round-trips for every algorithm in the library, and the
//! parsed programs stay verifiable. XML that still carries the `<epoch>`
//! cuts earlier compilers annotated loads as if they were absent.

use mscclang::{compile, ir_xml, verify, CompileOptions, Program};

fn roundtrip(program: &Program, instances: usize) {
    let ir = compile(
        program,
        &CompileOptions::default()
            .with_verify(false)
            .with_instances(instances),
    )
    .unwrap_or_else(|e| panic!("{}: compile: {e}", program.name()));
    let xml = ir_xml::to_xml(&ir);
    let parsed =
        ir_xml::from_xml(&xml).unwrap_or_else(|e| panic!("{}: parse: {e}", program.name()));
    assert_eq!(
        parsed,
        ir,
        "{}: XML round-trip not identical",
        program.name()
    );
    verify::check(&parsed, &verify::VerifyOptions::default())
        .unwrap_or_else(|e| panic!("{}: parsed IR fails verification: {e}", program.name()));
}

#[test]
fn all_algorithms_round_trip() {
    roundtrip(&msccl_algos::ring_all_reduce(6, 2).unwrap(), 2);
    roundtrip(&msccl_algos::allpairs_all_reduce(5).unwrap(), 1);
    roundtrip(&msccl_algos::hierarchical_all_reduce(2, 3).unwrap(), 1);
    roundtrip(&msccl_algos::two_step_all_to_all(2, 3).unwrap(), 1);
    roundtrip(&msccl_algos::one_step_all_to_all(3, 2).unwrap(), 1);
    roundtrip(&msccl_algos::all_to_next(2, 3).unwrap(), 2);
    roundtrip(&msccl_algos::hcm_allgather().unwrap(), 1);
    roundtrip(&msccl_algos::recursive_doubling_all_gather(4).unwrap(), 1);
    roundtrip(&msccl_algos::binary_tree_all_reduce(6, 1).unwrap(), 1);
}

#[test]
fn xml_is_stable_across_serializations() {
    let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
    let ir = compile(&p, &CompileOptions::default()).unwrap();
    let a = ir_xml::to_xml(&ir);
    let b = ir_xml::to_xml(&ir_xml::from_xml(&a).unwrap());
    assert_eq!(a, b);
}

#[test]
fn protocol_hint_survives() {
    let mut p = msccl_algos::ring_all_reduce(4, 1).unwrap();
    p.set_protocol(msccl_topology::Protocol::Ll128);
    let ir = compile(&p, &CompileOptions::default()).unwrap();
    let parsed = ir_xml::from_xml(&ir_xml::to_xml(&ir)).unwrap();
    assert_eq!(parsed.protocol, Some(msccl_topology::Protocol::Ll128));
}

/// `msccl compile ring-allreduce --ranks 2 --no-fuse` as written when
/// compiled programs carried epoch cuts, its two `<epoch marks>` lines
/// included.
const RING2_WITH_EPOCHS: &str = r#"<algo name="ring_allreduce_ch1" proto="none" nchannels="1" ngpus="2" coll="allreduce" inchunks="2" outchunks="2" inplace="1" root="-1" refinement="1">
  <gpu id="0" i_chunks="2" o_chunks="2" s_chunks="0">
    <tb id="0" send="-1" recv="1" chan="0">
      <step s="0" type="rrc" srcbuf="i" srcoff="0" dstbuf="i" dstoff="0" cnt="1" depid="-1" deps="-1" hasdep="1"/>
      <step s="1" type="r" srcbuf="-" srcoff="-1" dstbuf="i" dstoff="1" cnt="1" depid="1" deps="0" hasdep="0"/>
    </tb>
    <tb id="1" send="1" recv="-1" chan="0">
      <step s="0" type="s" srcbuf="i" srcoff="1" dstbuf="i" dstoff="1" cnt="1" depid="-1" deps="-1" hasdep="1"/>
      <step s="1" type="s" srcbuf="i" srcoff="0" dstbuf="i" dstoff="0" cnt="1" depid="0" deps="0" hasdep="0"/>
    </tb>
  </gpu>
  <gpu id="1" i_chunks="2" o_chunks="2" s_chunks="0">
    <tb id="0" send="0" recv="-1" chan="0">
      <step s="0" type="s" srcbuf="i" srcoff="0" dstbuf="i" dstoff="0" cnt="1" depid="-1" deps="-1" hasdep="1"/>
      <step s="1" type="s" srcbuf="i" srcoff="1" dstbuf="i" dstoff="1" cnt="1" depid="1" deps="0" hasdep="0"/>
    </tb>
    <tb id="1" send="-1" recv="0" chan="0">
      <step s="0" type="rrc" srcbuf="i" srcoff="1" dstbuf="i" dstoff="1" cnt="1" depid="-1" deps="-1" hasdep="1"/>
      <step s="1" type="r" srcbuf="-" srcoff="-1" dstbuf="i" dstoff="0" cnt="1" depid="0" deps="0" hasdep="0"/>
    </tb>
  </gpu>
  <epoch marks="1,1;1,1"/>
  <epoch marks="2,2;2,2"/>
</algo>
"#;

#[test]
fn xml_with_epoch_marks_loads_as_without_them() {
    let loaded = ir_xml::from_xml(RING2_WITH_EPOCHS).expect("loads");
    let without: String = RING2_WITH_EPOCHS
        .lines()
        .filter(|l| !l.trim_start().starts_with("<epoch "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        without.lines().count() + 2,
        RING2_WITH_EPOCHS.lines().count()
    );
    assert_eq!(loaded, ir_xml::from_xml(&without).expect("loads"));
    assert_eq!(ir_xml::to_xml(&loaded), without, "no epoch line is written");
    let compiled = compile(
        &msccl_algos::ring_all_reduce(2, 1).unwrap(),
        &CompileOptions::default().with_fuse(false),
    )
    .unwrap();
    assert_eq!(loaded, compiled);
}
