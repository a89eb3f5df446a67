//! The low-dropout regulator — paper Table V row 3.
//!
//! A 5-transistor NMOS-input error amplifier drives a heavily arrayed PMOS
//! pass device; a resistive divider feeds back half of VOUT against a
//! fixed reference. Rail decoupling arrays emulate the arrayed instances
//! behind the paper's 167k device count ("the number of devices is high
//! due to arrayed instances used by the analog engineer").
//!
//! Nine constraints, as in the paper's description (PSRR, gain margin,
//! phase margin, DC gain, GBW, plus regulation/quiescent specs). Loop-gain
//! measurements use the two-step break-the-loop method: a closed-loop
//! operating point pins the feedback voltage, then an open-loop replica is
//! driven at that bias to sweep the loop transmission.

use opt::{SizingProblem, SpecResult};
use spice::{Circuit, SimOptions, SpiceError, Waveform, GND};

use crate::measure;
use crate::parasitics::{apply_parasitics, update_parasitics, ParasiticConfig};
use crate::tech::{tech_advanced, Corner, CornerPlanes, CornerSet, Technology};

/// The LDO sizing problem (10 variables — ~6 critical — and 9 constraints).
#[derive(Debug, Clone)]
pub struct Ldo {
    tech: Technology,
    opts: SimOptions,
    parasitics: ParasiticConfig,
    /// Regulation target \[V\] (bandgap-derived: does *not* track the
    /// corner supply — exactly why low-supply corners stress the design).
    vout_target: f64,
    /// Reference voltage \[V\] (half of the target; divider ratio 2).
    vref: f64,
    /// Nominal and light load currents \[A\].
    i_load: (f64, f64),
    /// Output capacitor \[F\].
    c_out: f64,
    /// Prebuilt closed-loop topology; per-candidate evaluation clones it
    /// and re-sizes devices, load and parasitics in place.
    template_closed: Circuit,
    /// Prebuilt broken-loop topology (feedback input driven by `VFBDRV`).
    template_open: Circuit,
    /// Node ids `(vout, vfb)` in the closed-loop template.
    nodes_closed: (usize, usize),
    /// Node ids `(vout, vfb)` in the broken-loop template (the extra
    /// `fb_drive` node shifts them).
    nodes_open: (usize, usize),
    /// The PVT scenario plane this instance evaluates across.
    corners: CornerPlanes<Ldo>,
}

impl Default for Ldo {
    fn default() -> Self {
        Self::new()
    }
}

impl Ldo {
    /// Creates the problem on the generic advanced-node technology at the
    /// nominal corner only (the legacy single-scenario plane).
    pub fn new() -> Self {
        Self::with_corners(CornerSet::nominal())
    }

    /// Creates the problem evaluating every candidate across a PVT corner
    /// set (see [`crate::tech::CornerSet`]). The regulation target and
    /// reference stay absolute (bandgap-referenced) while the supply and
    /// device cards derate per corner; corner 0 of every standard set is
    /// nominal and bit-identical to [`Ldo::new`].
    ///
    /// # Panics
    ///
    /// Panics if the set is empty or a template fails to build.
    pub fn with_corners(corners: CornerSet) -> Self {
        let (mut base, planes) = CornerPlanes::build(corners, Self::build_plane);
        base.corners = planes;
        base
    }

    /// Builds one single-corner evaluation plane.
    fn build_plane(corner: &Corner) -> Ldo {
        let mut ldo = Ldo {
            tech: tech_advanced().at_corner(corner),
            opts: corner.options(&SimOptions::default()),
            parasitics: ParasiticConfig::default(),
            vout_target: 0.55,
            vref: 0.275,
            i_load: (5e-3, 0.5e-3),
            c_out: 100e-12,
            template_closed: Circuit::new(),
            template_open: Circuit::new(),
            nodes_closed: (0, 0),
            nodes_open: (0, 0),
            corners: CornerPlanes::single(*corner),
        };
        let (closed, vout, vfb) = ldo
            .build_topology(false)
            .expect("LDO closed-loop template must build");
        let (open, vout_o, vfb_o) = ldo
            .build_topology(true)
            .expect("LDO broken-loop template must build");
        ldo.template_closed = closed;
        ldo.template_open = open;
        ldo.nodes_closed = (vout, vfb);
        ldo.nodes_open = (vout_o, vfb_o);
        ldo
    }

    /// The scenario plane this instance evaluates across.
    pub fn corners(&self) -> &CornerSet {
        self.corners.set()
    }

    /// A hand-tuned near-feasible design.
    ///
    /// Layout: `[w_ea, l_ea, w_mir, m_pass, cc, r1, w_tail, w_decap,
    /// l_decap, w_dummy]`.
    pub fn nominal(&self) -> Vec<f64> {
        let u = 1e-6;
        vec![
            4.0 * u, // error-amp input pair width
            0.1 * u, // error-amp input pair length
            2.0 * u, // error-amp PMOS mirror width
            2000.0,  // pass-device fingers
            2.0e-12, // compensation cap
            100e3,   // divider top resistor
            4.0 * u, // error-amp tail width
            1.0 * u, // decap width  (non-critical)
            0.1 * u, // decap length (non-critical)
            0.3 * u, // dummy width  (non-critical)
        ]
    }

    /// Builds the regulator topology once, with the nominal sizing applied
    /// (the sizing itself lives exclusively in [`Ldo::resize`]).
    /// `broken_loop`: the loop is cut at the error-amp feedback input,
    /// which is instead driven by the `VFBDRV` source (re-biased per
    /// candidate by [`Ldo::build`]).
    fn build_topology(&self, broken_loop: bool) -> Result<(Circuit, usize, usize), SpiceError> {
        let t = &self.tech;
        let l = t.l_min;
        let u = 1e-6;
        let i_load = self.i_load.0;
        let fb_drive = if broken_loop {
            Some((self.vref, 1.0))
        } else {
            None
        };
        let (w_ea, l_ea, w_mir, m_pass, cc, r1, w_tail) = (u, l, u, 1.0, 1e-12, 100e3, u);
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        ckt.add_vsource("VDD", vdd, GND, Waveform::Dc(t.vdd))?;
        let vref = ckt.node("vref");
        ckt.add_vsource("VREF", vref, GND, Waveform::Dc(self.vref))?;

        // Error amplifier: NMOS pair (A = feedback side with diode load,
        // B = reference side with mirror output).
        let tail = ckt.node("ea_tail");
        let d_a = ckt.node("ea_da");
        let ea_out = ckt.node("ea_out");
        let vbn = ckt.node("vbn");
        ckt.add_mosfet("MB_n1", vbn, vbn, GND, GND, &t.nmos, 1e-6, 0.1e-6, 1.0)?;
        ckt.add_isource("IB1", vdd, vbn, Waveform::Dc(20e-6))?;
        ckt.add_mosfet("M_tail", tail, vbn, GND, GND, &t.nmos, w_tail, 0.1e-6, 2.0)?;
        let fb_in = match fb_drive {
            None => ckt.node("vfb"),
            Some((dc, ac)) => {
                let n = ckt.node("fb_drive");
                ckt.add_vsource_ac("VFBDRV", n, GND, Waveform::Dc(dc), ac)?;
                n
            }
        };
        ckt.add_mosfet("M_eaA", d_a, fb_in, tail, GND, &t.nmos, w_ea, l_ea, 1.0)?;
        ckt.add_mosfet("M_eaB", ea_out, vref, tail, GND, &t.nmos, w_ea, l_ea, 1.0)?;
        ckt.add_mosfet("M_mirD", d_a, d_a, vdd, vdd, &t.pmos, w_mir, 0.1e-6, 1.0)?;
        ckt.add_mosfet("M_mirO", ea_out, d_a, vdd, vdd, &t.pmos, w_mir, 0.1e-6, 1.0)?;

        // Pass device and output network.
        let vout = ckt.node("vout");
        ckt.add_mosfet("M_pass", vout, ea_out, vdd, vdd, &t.pmos, 0.3e-6, l, m_pass)?;
        ckt.add_capacitor("CC", ea_out, vout, cc)?;
        ckt.add_capacitor("COUT", vout, GND, self.c_out)?;
        ckt.add_isource("ILOAD", vout, GND, Waveform::Dc(i_load))?;
        // Divider: vfb node always exists; in open-loop builds it is the
        // return-signal tap (loaded by the divider exactly as closed loop).
        let vfb_tap = ckt.node("vfb");
        ckt.add_resistor("R1", vout, vfb_tap, r1)?;
        ckt.add_resistor("R2", vfb_tap, GND, 100e3)?;

        // Arrayed decoupling (the device-count emulation) and a dummy.
        ckt.add_mosfet("M_decap1", GND, vdd, GND, GND, &t.nmos, u, l, 82_300.0)?;
        ckt.add_mosfet("M_decap2", GND, vout, GND, GND, &t.nmos, u, l, 82_300.0)?;
        ckt.add_mosfet("M_dummy", vout, GND, GND, GND, &t.nmos, u, l, 1.0)?;
        self.resize(&mut ckt, &self.nominal())?;
        apply_parasitics(&mut ckt, &self.parasitics)?;
        let vout_id = ckt.find_node("vout")?;
        let vfb_id = ckt.find_node("vfb")?;
        Ok((ckt, vout_id, vfb_id))
    }

    /// Writes every design-dependent device value for the vector `x` —
    /// the single source of truth for the variable→device mapping.
    fn resize(&self, ckt: &mut Circuit, x: &[f64]) -> Result<(), SpiceError> {
        let l = self.tech.l_min;
        let (w_ea, l_ea, w_mir, m_pass, cc, r1, w_tail) = (
            x[0],
            x[1].max(l),
            x[2],
            x[3].round().max(1.0),
            x[4],
            x[5],
            x[6],
        );
        ckt.set_mosfet_geometry("M_tail", w_tail, 0.1e-6, 2.0)?;
        ckt.set_mosfet_geometry("M_eaA", w_ea, l_ea, 1.0)?;
        ckt.set_mosfet_geometry("M_eaB", w_ea, l_ea, 1.0)?;
        ckt.set_mosfet_geometry("M_mirD", w_mir, 0.1e-6, 1.0)?;
        ckt.set_mosfet_geometry("M_mirO", w_mir, 0.1e-6, 1.0)?;
        ckt.set_mosfet_geometry("M_pass", 0.3e-6, l, m_pass)?;
        ckt.set_capacitance("CC", cc)?;
        ckt.set_resistance("R1", r1)?;
        ckt.set_mosfet_geometry("M_decap1", x[7], x[8].max(l), 82_300.0)?;
        ckt.set_mosfet_geometry("M_decap2", x[7], x[8].max(l), 82_300.0)?;
        ckt.set_mosfet_geometry("M_dummy", x[9], l, 1.0)?;
        Ok(())
    }

    /// Instantiates a candidate: clones the matching prebuilt template and
    /// re-sizes devices, load current, feedback drive and parasitics in
    /// place (no netlist rebuild; the topology fingerprint is unchanged so
    /// pooled solver state carries across candidates).
    fn build(
        &self,
        x: &[f64],
        i_load: f64,
        fb_drive: Option<(f64, f64)>,
    ) -> Result<(Circuit, usize, usize), SpiceError> {
        let (mut ckt, nodes) = match fb_drive {
            None => (self.template_closed.clone(), self.nodes_closed),
            Some(_) => (self.template_open.clone(), self.nodes_open),
        };
        self.resize(&mut ckt, x)?;
        ckt.set_source_dc("ILOAD", i_load)?;
        if let Some((dc, ac)) = fb_drive {
            ckt.set_source_dc("VFBDRV", dc)?;
            ckt.set_ac_mag("VFBDRV", ac)?;
        }
        update_parasitics(&mut ckt, &self.parasitics)?;
        Ok((ckt, nodes.0, nodes.1))
    }

    /// Expanded MOS count (array-aware), ~167k as in the paper's Table V.
    pub fn device_count(&self) -> f64 {
        let x = self.nominal();
        self.build(&x, self.i_load.0, None)
            .map(|(c, _, _)| c.expanded_mosfet_count())
            .unwrap_or(0.0)
    }
}

impl SizingProblem for Ldo {
    fn dim(&self) -> usize {
        10
    }

    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        let u = 1e-6;
        (
            vec![
                0.5 * u,
                0.02 * u,
                0.5 * u,
                200.0,
                0.2e-12,
                50e3,
                0.5 * u,
                0.1 * u,
                0.02 * u,
                0.1 * u,
            ],
            vec![
                20.0 * u,
                0.5 * u,
                20.0 * u,
                20000.0,
                10e-12,
                200e3,
                20.0 * u,
                8.0 * u,
                0.5 * u,
                8.0 * u,
            ],
        )
    }

    fn num_constraints(&self) -> usize {
        9
    }

    fn name(&self) -> &str {
        "ldo"
    }

    fn variable_names(&self) -> Vec<String> {
        [
            "w_ea", "l_ea", "w_mir", "m_pass", "cc", "r1", "w_tail", "w_decap", "l_decap",
            "w_dummy",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    fn nominal(&self) -> Vec<f64> {
        self.nominal()
    }

    fn num_corners(&self) -> usize {
        self.corners.len()
    }

    fn corner_name(&self, k: usize) -> String {
        self.corners.label(k)
    }

    fn evaluate_corner(&self, x: &[f64], k: usize) -> SpecResult {
        // Deterministic fault-plane scope, keyed by candidate bits × corner.
        let _scope = spice::fault::candidate_scope(spice::fault::candidate_key(x, k as u64));
        self.corners.plane(self, k).evaluate_plane(x)
    }

    fn evaluate(&self, x: &[f64]) -> SpecResult {
        opt::evaluate_worst_case(self, x)
    }
}

impl Ldo {
    /// Runs the full measurement suite on this plane's corner — the
    /// single-scenario evaluation every corner of the plane shares.
    fn evaluate_plane(&self, x: &[f64]) -> SpecResult {
        let m = SizingProblem::num_constraints(self);
        // Closed-loop operating points at nominal and light load.
        let (ckt_nom, vout, vfb) = match self.build(x, self.i_load.0, None) {
            Ok(v) => v,
            Err(e) => return SpecResult::failed_with(m, crate::diag_from_spice(&e, "ldo netlist")),
        };
        // One pooled workspace per loop topology: both closed-loop solves
        // (and later candidates) reuse the same recorded solver state.
        let mut ws = spice::lease_workspace(&ckt_nom);
        let op_nom = match spice::op_with_workspace(&ckt_nom, &self.opts, None, &mut ws) {
            Ok(op) => op,
            Err(e) => return SpecResult::failed_with(m, crate::diag_from_spice(&e, "ldo op")),
        };
        let (ckt_lt, vout_lt, _) = match self.build(x, self.i_load.1, None) {
            Ok(v) => v,
            Err(e) => {
                return SpecResult::failed_with(
                    m,
                    crate::diag_from_spice(&e, "ldo light-load netlist"),
                )
            }
        };
        let op_lt = match spice::op_with_workspace(&ckt_lt, &self.opts, None, &mut ws) {
            Ok(op) => op,
            Err(e) => {
                return SpecResult::failed_with(m, crate::diag_from_spice(&e, "ldo light-load op"))
            }
        };
        let v_nom = op_nom.voltage(vout);
        let v_lt = op_lt.voltage(vout_lt);
        let vout_err = (v_nom - self.vout_target).abs();
        let regulation = (v_nom - v_lt).abs();
        // Quiescent current: total supply current minus the load.
        let iq = match op_lt.source_current(&ckt_lt, "VDD") {
            Ok(i) => (-i - self.i_load.1).abs(),
            Err(e) => return SpecResult::failed_with(m, crate::diag_from_spice(&e, "ldo iq")),
        };

        // PSRR (closed loop) at nominal load.
        let mut ckt_ps = ckt_nom.clone();
        let _ = ckt_ps.set_ac_mag("VDD", 1.0);
        let freqs = spice::log_freqs(1e2, 1e9, 4);
        // Re-sized AC magnitudes leave the topology fingerprint unchanged,
        // so the sweep reuses `ws`'s recorded complex pattern.
        let ac_ps = match spice::ac_with_workspace(&ckt_ps, &self.opts, &op_nom, &freqs, &mut ws) {
            Ok(ac) => ac,
            Err(e) => return SpecResult::failed_with(m, crate::diag_from_spice(&e, "ldo psrr ac")),
        };
        let psrr_10k = -measure::db(measure::sample_response(
            &freqs,
            &ac_ps.magnitude(vout),
            10e3,
        ));

        // Loop gain: break the loop at the error-amp feedback input, hold
        // the bias, sweep.
        let vfb_dc = op_nom.voltage(vfb);
        let (ckt_ol, vout_ol, vfb_ol) = match self.build(x, self.i_load.0, Some((vfb_dc, 1.0))) {
            Ok(v) => v,
            Err(e) => {
                return SpecResult::failed_with(
                    m,
                    crate::diag_from_spice(&e, "ldo open-loop netlist"),
                )
            }
        };
        let mut ws_ol = spice::lease_workspace(&ckt_ol);
        let op_ol = match spice::op_with_workspace(&ckt_ol, &self.opts, None, &mut ws_ol) {
            Ok(op) => op,
            Err(e) => {
                return SpecResult::failed_with(m, crate::diag_from_spice(&e, "ldo open-loop op"))
            }
        };
        let _ = vout_ol;
        let lfreqs = spice::log_freqs(1e2, 1e9, 6);
        let ac_l = match spice::ac_with_workspace(&ckt_ol, &self.opts, &op_ol, &lfreqs, &mut ws_ol)
        {
            Ok(ac) => ac,
            Err(e) => return SpecResult::failed_with(m, crate::diag_from_spice(&e, "ldo loop ac")),
        };
        // Loop transmission L = v(tap); negate for the standard phase
        // reference (negative feedback -> arg(-L) starts near 0).
        let lmag: Vec<f64> = (0..lfreqs.len())
            .map(|i| ac_l.voltage(i, vfb_ol).abs())
            .collect();
        let lphase =
            measure::unwrap_phases((0..lfreqs.len()).map(|i| (-ac_l.voltage(i, vfb_ol)).arg()));
        let dc_gain_db = measure::db(lmag[0]);
        let pm = measure::phase_margin(&lfreqs, &lmag, &lphase);
        let gm_db = measure::gain_margin_db(&lfreqs, &lmag, &lphase);
        let gbw = measure::unity_gain_frequency(&lfreqs, &lmag);

        // Output noise at vout, closed loop (same topology as the PSRR
        // sweep, so the adjoint reuses the recorded pattern in `ws`).
        let noise_rms = spice::noise_with_workspace(
            &ckt_nom,
            &self.opts,
            &op_nom,
            vout,
            GND,
            &spice::log_freqs(1e1, 1e7, 3),
            &mut ws,
        )
        .map(|n| n.total_rms())
        .unwrap_or(f64::INFINITY);

        let constraints = vec![
            // 1. Output accuracy < 10 mV.
            (vout_err - 10e-3) / 10e-3,
            // 2. Load regulation < 15 mV over the 10:1 load step.
            (regulation - 15e-3) / 15e-3,
            // 3. DC loop gain > 40 dB.
            (40.0 - dc_gain_db) / 20.0,
            // 4. Phase margin > 50°.
            match pm {
                Some(p) => (50.0 - p) / 30.0,
                None => 2.0,
            },
            // 5. Gain margin > 10 dB.
            match gm_db {
                Some(g) => (10.0 - g) / 10.0,
                None => -1.0, // phase never reaches 180°: unconditionally stable
            },
            // 6. Loop GBW > 2 MHz.
            match gbw {
                Some(f) => (2e6 - f) / 2e6,
                None => 2.0,
            },
            // 7. PSRR at 10 kHz > 30 dB.
            (30.0 - psrr_10k) / 20.0,
            // 8. Quiescent current < 200 µA.
            (iq - 200e-6) / 200e-6,
            // 9. Output noise < 10 mV rms (flicker-dominated at this
            // technology card's KF; see EXPERIMENTS.md calibration note).
            (noise_rms - 10e-3) / 10e-3,
        ];
        SpecResult {
            failure: None,
            objective: iq,
            constraints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_constraints_ten_vars() {
        let ldo = Ldo::new();
        assert_eq!(ldo.dim(), 10);
        assert_eq!(ldo.num_constraints(), 9);
    }

    #[test]
    fn device_count_matches_paper_scale() {
        let ldo = Ldo::new();
        let n = ldo.device_count();
        assert!(n > 150_000.0 && n < 180_000.0, "count {n}");
    }

    #[test]
    fn nominal_regulates() {
        let ldo = Ldo::new();
        let spec = ldo.evaluate(&ldo.nominal());
        assert!(!spec.is_failure(), "nominal LDO must simulate");
        // The regulation constraints are the core function.
        assert!(
            spec.constraints[0] <= 0.0,
            "vout accuracy violated: {}",
            spec.constraints[0]
        );
        assert!(
            spec.constraints[1] <= 0.0,
            "load regulation violated: {}",
            spec.constraints[1]
        );
    }

    #[test]
    fn nominal_corner_is_bit_identical_to_legacy_path() {
        let legacy = Ldo::new();
        let cornered = Ldo::with_corners(CornerSet::pvt5());
        let x = legacy.nominal();
        let a = legacy.evaluate(&x);
        let b = cornered.evaluate_corner(&x, 0);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        for (p, q) in a.constraints.iter().zip(&b.constraints) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn five_corner_plane_evaluates_everywhere() {
        let ldo = Ldo::with_corners(CornerSet::pvt5());
        assert_eq!(ldo.num_corners(), 5);
        let x = ldo.nominal();
        for k in 0..ldo.num_corners() {
            let spec = ldo.evaluate_corner(&x, k);
            assert_eq!(spec.constraints.len(), 9);
            assert!(
                !spec.is_failure(),
                "corner {} must simulate",
                ldo.corner_name(k)
            );
        }
        let worst = ldo.evaluate(&x);
        assert!(!worst.is_failure());
        let nom = ldo.evaluate_corner(&x, 0);
        for (w, n) in worst.constraints.iter().zip(&nom.constraints) {
            assert!(w >= n, "worst case can only tighten: {w} < {n}");
        }
    }

    #[test]
    fn wrong_divider_cannot_regulate() {
        let ldo = Ldo::new();
        let mut x = ldo.nominal();
        // r1 at its maximum makes the target output 0.275·(1 + 200k/100k)
        // = 0.825 V — above what the supply can deliver, so the accuracy
        // constraint must fail.
        x[5] = 200e3;
        let spec = ldo.evaluate(&x);
        assert!(
            spec.constraints[0] > 0.0,
            "vout accuracy should fail: {}",
            spec.constraints[0]
        );
    }
}
