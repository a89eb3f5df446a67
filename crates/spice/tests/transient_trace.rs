//! A transient starts from the caller's operating point and solves no DC
//! operating point of its own: traced, every Newton solve it records is a
//! timestep.
//!
//! This is its own test binary because the telemetry plane is
//! process-wide: no other test may record into it while this one counts.

use spice::{Circuit, MosModel, MosPolarity, SimOptions, Waveform, GND};
use telemetry::{Metric, SinkKind, SpanId};

/// A CMOS inverter on a 1.8 V supply driven by a 5 ns input pulse.
fn pulsed_inverter() -> Circuit {
    let nmos = MosModel {
        polarity: MosPolarity::Nmos,
        vth0: 0.45,
        kp: 300e-6,
        clm: 0.02e-6,
        gamma: 0.4,
        phi: 0.8,
        nsub: 1.4,
        cox: 8.5e-3,
        cov: 3e-10,
        cj: 1e-3,
        ldiff: 0.4e-6,
        kf: 1e-26,
        af: 1.0,
        noise_gamma: 2.0 / 3.0,
    };
    let pmos = MosModel {
        polarity: MosPolarity::Pmos,
        kp: 80e-6,
        ..nmos.clone()
    };
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let inp = c.node("in");
    let out = c.node("out");
    c.add_vsource("VDD", vdd, GND, Waveform::Dc(1.8)).unwrap();
    c.add_vsource(
        "VIN",
        inp,
        GND,
        Waveform::pulse(0.0, 1.8, 1e-9, 50e-12, 50e-12, 5e-9, f64::INFINITY),
    )
    .unwrap();
    c.add_mosfet("MN", out, inp, GND, GND, &nmos, 2e-6, 0.18e-6, 1.0)
        .unwrap();
    c.add_mosfet("MP", out, inp, vdd, vdd, &pmos, 4e-6, 0.18e-6, 1.0)
        .unwrap();
    c.add_capacitor("CL", out, GND, 10e-15).unwrap();
    c
}

#[test]
fn traced_transient_records_one_solve_per_timestep_and_no_dc_ladder() {
    let c = pulsed_inverter();
    let opts = SimOptions::default();
    let mut ws = spice::lease_workspace(&c);
    let op0 = spice::op_with_workspace(&c, &opts, None, &mut ws).unwrap();

    telemetry::install(Some(SinkKind::Summary));
    telemetry::reset();
    let tr = spice::transient_with_workspace(&c, &opts, &op0, 10e-9, 25e-12, &mut ws);
    let summary = telemetry::finish().expect("plane is installed");
    telemetry::install(None);
    let tr = tr.unwrap();

    assert_eq!(
        summary.metric(Metric::StepHalvings).sum,
        0,
        "the circuit must run without step halvings"
    );
    assert_eq!(
        summary.span_count(SpanId::Solve),
        tr.len() as u64 - 1,
        "one Newton solve per accepted timestep, none for a DC operating point"
    );
    assert_eq!(summary.metric(Metric::GminSteps).sum, 0);
    assert_eq!(summary.metric(Metric::SourceSteps).sum, 0);
}
