//! The level shifter — paper Table V row 2.
//!
//! A low-supply (VDDL) input inverter drives a classic cross-coupled-PMOS
//! level shifter on the high supply (VDDH), followed by a two-stage output
//! buffer. Rail decoupling arrays emulate the arrayed instances that give
//! the paper's version its ~1.2k device count.
//!
//! The paper reports *60 total specs* ("delay, rise, fall, power, current,
//! etc.") and ten sensitivity-critical devices. Here those 60 specs are a
//! **scenario plane**: 6 supply corners (VDDL ∈ {0.40, 0.45, 0.50} V ×
//! VDDH ∈ {0.70, 0.75} V) × 10 measurements per corner, evaluated through
//! the shared corner engine ([`SizingProblem::evaluate_corner`] /
//! `opt::Evaluator::evaluate_batch`) rather than a private loop — the
//! sign-off view ([`SizingProblem::evaluate`]) is the worst case over the
//! plane (10 constraints), and the corner-resolved 60-wide view is what
//! the per-corner critic mode consumes. The variable vector is a 16-wide
//! superset — 10 genuinely critical device sizes plus 6 near-inert ones
//! (decap array geometry, a dummy output load) that sensitivity analysis
//! is expected to prune, mirroring the paper's flow.

use opt::{SizingProblem, SpecResult};
use spice::{Circuit, SimOptions, SpiceError, Waveform, GND};

use crate::measure;
use crate::parasitics::{apply_parasitics, update_parasitics, ParasiticConfig};
use crate::tech::{tech_advanced, Technology};

/// Supply corners: (VDDL, VDDH) — the level shifter's scenario plane.
const SUPPLY_CORNERS: [(f64, f64); 6] = [
    (0.40, 0.70),
    (0.40, 0.75),
    (0.45, 0.70),
    (0.45, 0.75),
    (0.50, 0.70),
    (0.50, 0.75),
];

/// The level-shifter sizing problem (16 variables — 10 critical — with 10
/// measurements evaluated at each of 6 supply corners: the paper's 60
/// total specs as a corner plane).
#[derive(Debug, Clone)]
pub struct LevelShifter {
    tech: Technology,
    opts: SimOptions,
    parasitics: ParasiticConfig,
    /// Output load \[F\].
    c_load: f64,
    /// Prebuilt testbench topology (identical at every supply corner);
    /// per-candidate-per-corner evaluation clones it and re-targets
    /// devices and sources in place.
    template: Circuit,
    /// Node ids `(in, out)`.
    io: (usize, usize),
}

impl Default for LevelShifter {
    fn default() -> Self {
        Self::new()
    }
}

impl LevelShifter {
    /// Creates the problem on the generic advanced-node technology.
    pub fn new() -> Self {
        // Cross-coupled (bistable) circuits need gentler Newton steps.
        let opts = SimOptions {
            max_nr_iters: 400,
            v_limit: 0.25,
            ..Default::default()
        };
        let mut ls = LevelShifter {
            tech: tech_advanced(),
            opts,
            parasitics: ParasiticConfig::default(),
            c_load: 10e-15,
            template: Circuit::new(),
            io: (0, 0),
        };
        let (ckt, inp, out) = ls
            .build_topology()
            .expect("level-shifter template must build");
        ls.template = ckt;
        ls.io = (inp, out);
        ls
    }

    /// A hand-tuned near-feasible design.
    ///
    /// Layout: `[w_invn, w_invp, w_pd1, w_pd2, w_xp1, w_xp2, w_b1n, w_b1p,
    /// w_b2n, w_b2p, w_decl, l_decl, w_dech, l_dech, w_dummy, l_pd]`.
    pub fn nominal(&self) -> Vec<f64> {
        let u = 1e-6;
        vec![
            0.4 * u, // input inverter NMOS
            0.8 * u, // input inverter PMOS
            4.0 * u, // pull-down 1
            4.0 * u, // pull-down 2
            0.2 * u, // cross PMOS 1
            0.2 * u, // cross PMOS 2
            0.5 * u, // buffer1 NMOS
            1.0 * u, // buffer1 PMOS
            1.0 * u, // buffer2 NMOS
            2.0 * u, // buffer2 PMOS
            1.0 * u, // decap-L width      (non-critical)
            0.1e-6,  // decap-L length     (non-critical)
            1.0 * u, // decap-H width      (non-critical)
            0.1e-6,  // decap-H length     (non-critical)
            0.3 * u, // dummy load width   (non-critical)
            0.02e-6, // pull-down length   (critical)
        ]
    }

    /// Builds the testbench topology once at the center corner, with the
    /// nominal sizing applied (the sizing lives exclusively in
    /// [`LevelShifter::resize`]; corner retargeting in
    /// [`LevelShifter::build`]).
    fn build_topology(&self) -> Result<(Circuit, usize, usize), SpiceError> {
        let t = &self.tech;
        let l = t.l_min;
        let u = 1e-6;
        let l_pd = l;
        let (vddl_v, vddh_v) = (0.45, 0.75);
        let mut ckt = Circuit::new();
        let vddl = ckt.node("vddl");
        let vddh = ckt.node("vddh");
        ckt.add_vsource("VDDL", vddl, GND, Waveform::Dc(vddl_v))?;
        ckt.add_vsource("VDDH", vddh, GND, Waveform::Dc(vddh_v))?;

        let inp = ckt.node("in");
        ckt.add_vsource(
            "VIN",
            inp,
            GND,
            Waveform::pulse(0.0, vddl_v, 100e-12, 10e-12, 10e-12, 500e-12, 1000e-12),
        )?;
        // Input inverter (VDDL domain) generates the complement.
        let inb = ckt.node("inb");
        ckt.add_mosfet("M_invN", inb, inp, GND, GND, &t.nmos, u, l, 1.0)?;
        ckt.add_mosfet("M_invP", inb, inp, vddl, vddl, &t.pmos, u, l, 1.0)?;
        // Cross-coupled core (VDDH domain): pull-downs driven by in/inb.
        let q = ckt.node("q");
        let qb = ckt.node("qb");
        ckt.add_mosfet("M_pd1", qb, inp, GND, GND, &t.nmos, u, l_pd, 1.0)?;
        ckt.add_mosfet("M_pd2", q, inb, GND, GND, &t.nmos, u, l_pd, 1.0)?;
        ckt.add_mosfet("M_xp1", qb, q, vddh, vddh, &t.pmos, u, l, 1.0)?;
        ckt.add_mosfet("M_xp2", q, qb, vddh, vddh, &t.pmos, u, l, 1.0)?;
        // Two-stage output buffer from q (in-phase with the input).
        let b1 = ckt.node("b1");
        let out = ckt.node("out");
        ckt.add_mosfet("M_b1n", b1, q, GND, GND, &t.nmos, u, l, 1.0)?;
        ckt.add_mosfet("M_b1p", b1, q, vddh, vddh, &t.pmos, u, l, 1.0)?;
        ckt.add_mosfet("M_b2n", out, b1, GND, GND, &t.nmos, u, l, 1.0)?;
        ckt.add_mosfet("M_b2p", out, b1, vddh, vddh, &t.pmos, u, l, 1.0)?;
        ckt.add_capacitor("CL", out, GND, self.c_load)?;
        // Dummy load device (inert diode-off NMOS on the output).
        ckt.add_mosfet("M_dummy", out, GND, GND, GND, &t.nmos, u, l, 1.0)?;
        // Rail decap arrays: the "arrayed instances" that dominate the
        // expanded device count (~600 each).
        ckt.add_mosfet("M_decL", GND, vddl, GND, GND, &t.nmos, u, l, 595.0)?;
        ckt.add_mosfet("M_decH", GND, vddh, GND, GND, &t.nmos, u, l, 595.0)?;
        self.resize(&mut ckt, &self.nominal())?;
        apply_parasitics(&mut ckt, &self.parasitics)?;
        Ok((ckt, inp, out))
    }

    /// Writes every design-dependent device value for the vector `x` —
    /// the single source of truth for the variable→device mapping.
    fn resize(&self, ckt: &mut Circuit, x: &[f64]) -> Result<(), SpiceError> {
        let t = &self.tech;
        let l = t.l_min;
        let l_pd = x[15].max(t.l_min);
        ckt.set_mosfet_geometry("M_invN", x[0], l, 1.0)?;
        ckt.set_mosfet_geometry("M_invP", x[1], l, 1.0)?;
        ckt.set_mosfet_geometry("M_pd1", x[2], l_pd, 1.0)?;
        ckt.set_mosfet_geometry("M_pd2", x[3], l_pd, 1.0)?;
        ckt.set_mosfet_geometry("M_xp1", x[4], l, 1.0)?;
        ckt.set_mosfet_geometry("M_xp2", x[5], l, 1.0)?;
        ckt.set_mosfet_geometry("M_b1n", x[6], l, 1.0)?;
        ckt.set_mosfet_geometry("M_b1p", x[7], l, 1.0)?;
        ckt.set_mosfet_geometry("M_b2n", x[8], l, 1.0)?;
        ckt.set_mosfet_geometry("M_b2p", x[9], l, 1.0)?;
        ckt.set_mosfet_geometry("M_decL", x[10], x[11].max(l), 595.0)?;
        ckt.set_mosfet_geometry("M_decH", x[12], x[13].max(l), 595.0)?;
        ckt.set_mosfet_geometry("M_dummy", x[14], l, 1.0)?;
        Ok(())
    }

    /// Instantiates a candidate at a supply corner: clones the prebuilt
    /// template, re-sizes devices and parasitics, and re-targets the
    /// supply and input sources in place (no netlist rebuild; the topology
    /// fingerprint is unchanged so pooled solver state carries across
    /// candidates *and* corners).
    fn build(
        &self,
        x: &[f64],
        vddl_v: f64,
        vddh_v: f64,
    ) -> Result<(Circuit, usize, usize), SpiceError> {
        let mut ckt = self.template.clone();
        self.resize(&mut ckt, x)?;
        ckt.set_source_dc("VDDL", vddl_v)?;
        ckt.set_source_dc("VDDH", vddh_v)?;
        ckt.set_source_wave(
            "VIN",
            Waveform::pulse(0.0, vddl_v, 100e-12, 10e-12, 10e-12, 500e-12, 1000e-12),
        )?;
        update_parasitics(&mut ckt, &self.parasitics)?;
        Ok((ckt, self.io.0, self.io.1))
    }

    /// Expanded MOS count of the netlist (array-aware), ~1.2k as in the
    /// paper's Table V.
    pub fn device_count(&self) -> f64 {
        let x = self.nominal();
        self.build(&x, 0.45, 0.75)
            .map(|(c, _, _)| c.expanded_mosfet_count())
            .unwrap_or(0.0)
    }
}

impl SizingProblem for LevelShifter {
    fn dim(&self) -> usize {
        16
    }

    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        let u = 1e-6;
        let mut lb = vec![0.1 * u; 16];
        let mut ub = vec![8.0 * u; 16];
        // Decap lengths and the pull-down length are lengths, not widths.
        lb[11] = 0.02 * u;
        ub[11] = 0.5 * u;
        lb[13] = 0.02 * u;
        ub[13] = 0.5 * u;
        lb[15] = 0.02 * u;
        ub[15] = 0.1 * u;
        (lb, ub)
    }

    fn num_constraints(&self) -> usize {
        10
    }

    fn num_corners(&self) -> usize {
        SUPPLY_CORNERS.len()
    }

    fn corner_name(&self, k: usize) -> String {
        let (vddl, vddh) = SUPPLY_CORNERS[k];
        format!("vddl{vddl:.2}_vddh{vddh:.2}")
    }

    fn name(&self) -> &str {
        "level-shifter"
    }

    fn variable_names(&self) -> Vec<String> {
        [
            "w_invn", "w_invp", "w_pd1", "w_pd2", "w_xp1", "w_xp2", "w_b1n", "w_b1p", "w_b2n",
            "w_b2p", "w_decl", "l_decl", "w_dech", "l_dech", "w_dummy", "l_pd",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    fn nominal(&self) -> Vec<f64> {
        self.nominal()
    }

    /// One supply corner of the scenario plane: the full 10-measurement
    /// transient suite at `(VDDL, VDDH)` pair `k`. The worst-case fold
    /// across all six corners (the paper's 60 total specs) lives in the
    /// shared engine — [`SizingProblem::evaluate`] below and the
    /// candidate×corner grid of `opt::Evaluator`.
    fn evaluate_corner(&self, x: &[f64], k: usize) -> SpecResult {
        let m = self.num_constraints();
        let (vddl_v, vddh_v) = SUPPLY_CORNERS[k];
        // Deterministic fault-plane scope, keyed by candidate bits × corner.
        let _scope = spice::fault::candidate_scope(spice::fault::candidate_key(x, k as u64));
        // Pooled workspace: identical topology at every corner, so the
        // recorded solver state carries across corners and candidates.
        let mut ws = spice::lease_workspace(&self.template);
        let (ckt, inp, out) = match self.build(x, vddl_v, vddh_v) {
            Ok(v) => v,
            Err(e) => {
                return SpecResult::failed_with(
                    m,
                    crate::diag_from_spice(&e, "level-shifter netlist"),
                )
            }
        };
        let tr = match spice::transient_with_workspace(&ckt, &self.opts, 1.1e-9, 2.5e-12, &mut ws) {
            Ok(tr) => tr,
            Err(e) => {
                return SpecResult::failed_with(
                    m,
                    crate::diag_from_spice(&e, "level-shifter transient"),
                )
            }
        };
        let w_in = tr.waveform(inp);
        let w_out = tr.waveform(out);
        let after = |w: &[(f64, f64)], t0: f64| -> Vec<(f64, f64)> {
            w.iter().copied().filter(|&(tt, _)| tt >= t0).collect()
        };
        // Rising edge at 100 ps, falling at 610 ps.
        let in_rise = measure::crossing_time(&after(&w_in, 50e-12), vddl_v / 2.0, true);
        let out_rise = measure::crossing_time(&after(&w_out, 50e-12), vddh_v / 2.0, true);
        let in_fall = measure::crossing_time(&after(&w_in, 500e-12), vddl_v / 2.0, false);
        let out_fall = measure::crossing_time(&after(&w_out, 500e-12), vddh_v / 2.0, false);
        let (d_rise, d_fall) = match (in_rise, out_rise, in_fall, out_fall) {
            (Some(a), Some(b), Some(c), Some(d)) if b > a && d > c => (b - a, d - c),
            _ => {
                // Functional failure at this corner: every measurement
                // heavily violated (no energy figure — the shifter never
                // shifted).
                return SpecResult {
                    failure: None,
                    objective: 0.0,
                    constraints: vec![3.0; m],
                };
            }
        };
        // Output edge rates (10%..90%).
        let rise_t = {
            let w = after(&w_out, 50e-12);
            let a = measure::crossing_time(&w, 0.1 * vddh_v, true);
            let b = measure::crossing_time(&w, 0.9 * vddh_v, true);
            match (a, b) {
                (Some(a), Some(b)) if b > a => b - a,
                _ => 1.0,
            }
        };
        let fall_t = {
            let w = after(&w_out, 500e-12);
            let a = measure::crossing_time(&w, 0.9 * vddh_v, false);
            let b = measure::crossing_time(&w, 0.1 * vddh_v, false);
            match (a, b) {
                (Some(a), Some(b)) if b > a => b - a,
                _ => 1.0,
            }
        };
        // Static levels and currents at the end of each phase.
        let v_high = tr.sample(out, 550e-12);
        let v_low = tr.sample(out, 1.05e-9);
        let i_static_high = tr
            .source_current(&ckt, "VDDH", tr.len() - 1)
            .map(|i| i.abs())
            .unwrap_or(1.0);
        // Peak VDDH current during the rising transition (contention).
        let mut i_peak = 0.0_f64;
        for (i, &tt) in tr.times().iter().enumerate() {
            if (0.1e-9..0.4e-9).contains(&tt) {
                if let Ok(ih) = tr.source_current(&ckt, "VDDH", i) {
                    i_peak = i_peak.max(ih.abs());
                }
            }
        }
        // Static VDDL current at input-high (inverter leakage).
        let i_static_low = tr
            .source_current(&ckt, "VDDL", tr.len() - 1)
            .map(|i| i.abs())
            .unwrap_or(1.0);
        let energy = tr
            .delivered_charge(&ckt, "VDDH", 0.0, 1.1e-9)
            .map(|q| (q * vddh_v).abs())
            .unwrap_or(1.0);

        // The ten measurements of this corner.
        let constraints = vec![
            (d_rise - 150e-12) / 150e-12,      // rise delay
            (d_fall - 150e-12) / 150e-12,      // fall delay
            (rise_t - 100e-12) / 100e-12,      // rise time
            (fall_t - 100e-12) / 100e-12,      // fall time
            (0.95 * vddh_v - v_high) / vddh_v, // output high
            (v_low - 0.05 * vddh_v) / vddh_v,  // output low
            (i_static_high - 3e-6) / 3e-6,     // static VDDH current
            (i_static_low - 3e-6) / 3e-6,      // static VDDL current
            (i_peak - 4e-3) / 4e-3,            // contention peak
            (energy - 150e-15) / 150e-15,      // energy per cycle
        ];
        SpecResult {
            failure: None,
            // Per-corner energy in pJ; the sign-off objective is the worst
            // corner's energy after the shared fold.
            objective: energy * 1e12,
            constraints,
        }
    }

    fn evaluate(&self, x: &[f64]) -> SpecResult {
        opt::evaluate_worst_case(self, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixty_specs_sixteen_vars() {
        let ls = LevelShifter::new();
        assert_eq!(ls.dim(), 16);
        // The paper's 60 total specs: 10 measurements × 6 supply corners,
        // now expressed as the scenario plane of the shared corner engine.
        assert_eq!(ls.num_constraints(), 10);
        assert_eq!(ls.num_corners(), 6);
        assert_eq!(ls.num_constraints() * ls.num_corners(), 60);
        assert_eq!(ls.variable_names().len(), 16);
        // Corner labels name the supply pair.
        assert_eq!(ls.corner_name(0), "vddl0.40_vddh0.70");
        assert_eq!(ls.corner_name(5), "vddl0.50_vddh0.75");
    }

    #[test]
    fn device_count_matches_paper_scale() {
        let ls = LevelShifter::new();
        let n = ls.device_count();
        assert!(n > 1000.0 && n < 1500.0, "expanded count {n}");
    }

    #[test]
    fn nominal_shifts_levels() {
        let ls = LevelShifter::new();
        // Functional at every corner of the plane: output-high/low met.
        for corner in 0..ls.num_corners() {
            let spec = ls.evaluate_corner(&ls.nominal(), corner);
            assert_eq!(spec.constraints.len(), 10);
            assert!(!spec.is_failure());
            assert!(
                spec.constraints[4] <= 0.0,
                "{} output-high violated: {}",
                ls.corner_name(corner),
                spec.constraints[4]
            );
            assert!(
                spec.constraints[5] <= 0.0,
                "{} output-low violated: {}",
                ls.corner_name(corner),
                spec.constraints[5]
            );
        }
        // The sign-off view is the worst case over the plane — still
        // functional at the merged level.
        let merged = ls.evaluate(&ls.nominal());
        assert_eq!(merged.constraints.len(), 10);
        assert!(!merged.is_failure());
        assert!(merged.constraints[4] <= 0.0 && merged.constraints[5] <= 0.0);
        // Worst-case objective: the most energy-hungry corner.
        let max_corner = (0..ls.num_corners())
            .map(|k| ls.evaluate_corner(&ls.nominal(), k).objective)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(merged.objective.to_bits(), max_corner.to_bits());
    }

    #[test]
    fn weak_pulldowns_fail() {
        let ls = LevelShifter::new();
        let mut x = ls.nominal();
        // Tiny pull-downs + huge cross PMOS: the shifter cannot flip.
        x[2] = 0.1e-6;
        x[3] = 0.1e-6;
        x[4] = 8e-6;
        x[5] = 8e-6;
        let spec = ls.evaluate(&x);
        assert!(!spec.feasible());
    }
}
