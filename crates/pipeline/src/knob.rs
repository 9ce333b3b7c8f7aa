//! JSON forms and realization plumbing for the stochastic scenario knobs.
//!
//! `cnt-stats` owns the *semantics* of [`DistSpec`] and [`FieldSpec`]
//! (validation, moments, sampling); this module owns their *wire forms*,
//! decoded by the tagged-type codec of [`crate::json`] like every other
//! tagged type:
//!
//! * a **bare number** is the scalar back-compat form and parses as
//!   [`DistSpec::Fixed`] — every pre-existing scenario file keeps its
//!   meaning (and its serialized bytes);
//! * a **`kind` object** spells the distribution out:
//!   `{"kind": "gaussian", "mean": 200, "sd": 20}`;
//! * a **nested single-key object** is the grid-schema shorthand:
//!   `{"gaussian": {"mean": 200, "sd": 20}}`;
//! * unknown kinds and unknown parameter names fail with
//!   [`crate::PipelineError::UnknownKey`] carrying the nearest valid
//!   candidate by edit distance, so typos are machine-actionable all the
//!   way up the service envelope.
//!
//! The module also centralizes how a stochastic scenario *realizes* into
//! scalars: the per-knob seed derivation (fixed knob order, one salt),
//! the per-knob domain clamps, and the relative quantization grid that
//! keeps realized values cache-friendly.

use crate::json::{Json, Obj, Owner, Tagged};
use crate::{PipelineError, Result};
use cnt_stats::{DistSpec, FieldSpec};

fn invalid(field: &'static str, msg: impl Into<String>) -> PipelineError {
    PipelineError::InvalidSpec {
        field,
        msg: msg.into(),
    }
}

/// The wire table of [`DistSpec`]: its kinds and their parameters.
const WIRE: Tagged = Tagged {
    kinds: &DistSpec::KINDS,
    params: &[
        &["value"],
        &["mean", "sd"],
        &["mean", "sd", "lo", "hi"],
        &["lo", "hi"],
        &["mu", "sigma"],
    ],
};

/// Parse a [`DistSpec`] from a bare number or either object form (see the
/// module docs). `context` names the owning field in diagnostics.
///
/// # Errors
///
/// [`PipelineError::UnknownKey`] for unknown kinds or parameter names
/// (with nearest-candidate suggestions), [`PipelineError::InvalidSpec`]
/// for wrong shapes or out-of-domain parameters.
pub fn dist_from_json(context: &'static str, v: &Json) -> Result<DistSpec> {
    let spec = match v {
        Json::Num(n) => DistSpec::Fixed(*n),
        Json::Obj(_) => {
            let (kind, p) = WIRE.read(context, v)?;
            let num = |key| p.req(key, Obj::num);
            match kind {
                "fixed" => DistSpec::Fixed(num("value")?),
                "gaussian" => DistSpec::Gaussian {
                    mean: num("mean")?,
                    sd: num("sd")?,
                },
                "truncated-gaussian" => DistSpec::TruncatedGaussian {
                    mean: num("mean")?,
                    sd: num("sd")?,
                    lo: num("lo")?,
                    hi: num("hi")?,
                },
                "uniform" => DistSpec::Uniform {
                    lo: num("lo")?,
                    hi: num("hi")?,
                },
                _ => DistSpec::LogNormal {
                    mu: num("mu")?,
                    sigma: num("sigma")?,
                },
            }
        }
        _ => {
            return Err(invalid(
                context,
                "must be a number or a distribution object",
            ))
        }
    };
    spec.validate()
        .map_err(|e| invalid(context, e.to_string()))?;
    Ok(spec)
}

/// Serialize a [`DistSpec`] to its normal wire form: a bare number for
/// `Fixed` (so scalar scenarios round-trip byte-identically), the tagged
/// `kind` object otherwise. `dist_from_json` inverts this exactly.
pub fn dist_to_json(d: &DistSpec) -> Json {
    let num = Json::Num;
    match *d {
        DistSpec::Fixed(v) => num(v),
        DistSpec::Gaussian { mean, sd } => {
            WIRE.write("gaussian", vec![("mean", num(mean)), ("sd", num(sd))])
        }
        DistSpec::TruncatedGaussian { mean, sd, lo, hi } => WIRE.write(
            "truncated-gaussian",
            vec![
                ("mean", num(mean)),
                ("sd", num(sd)),
                ("lo", num(lo)),
                ("hi", num(hi)),
            ],
        ),
        DistSpec::Uniform { lo, hi } => {
            WIRE.write("uniform", vec![("lo", num(lo)), ("hi", num(hi))])
        }
        DistSpec::LogNormal { mu, sigma } => {
            WIRE.write("lognormal", vec![("mu", num(mu)), ("sigma", num(sigma))])
        }
    }
}

/// The field-object keys beyond the embedded distribution.
const FIELD_KEYS: [&str; 6] = [
    "dist",
    "trend",
    "noise_sd",
    "correlation_dies",
    "clamp_lo",
    "clamp_hi",
];

/// Parse a [`FieldSpec`]. Accepts every [`dist_from_json`] form (which
/// becomes a trivial field: no trend, no correlated noise), or the full
/// field object `{"dist": …, "trend": …, "noise_sd": …,
/// "correlation_dies": …, "clamp_lo": …, "clamp_hi": …}` where every key
/// but `dist` is optional.
///
/// # Errors
///
/// As [`dist_from_json`], plus [`PipelineError::InvalidSpec`] for bad
/// field hyperparameters.
pub fn field_from_json(context: &'static str, v: &Json) -> Result<FieldSpec> {
    let is_field_obj = v
        .as_object()
        .is_some_and(|fields| fields.iter().any(|(k, _)| FIELD_KEYS.contains(&k.as_str())));
    if !is_field_obj {
        return Ok(FieldSpec::from_dist(dist_from_json(context, v)?));
    }
    let f = Obj::new(v, Owner::Field(context), &FIELD_KEYS)?;
    let dist = dist_from_json(context, f.need("dist")?)?;
    let base = FieldSpec::from_dist(dist);
    let spec = FieldSpec {
        dist,
        trend: f.num("trend")?.unwrap_or(base.trend),
        noise_sd: f.num("noise_sd")?.unwrap_or(base.noise_sd),
        correlation_dies: f.num("correlation_dies")?.unwrap_or(base.correlation_dies),
        clamp_lo: f.num("clamp_lo")?.unwrap_or(base.clamp_lo),
        clamp_hi: f.num("clamp_hi")?.unwrap_or(base.clamp_hi),
    };
    spec.validate()
        .map_err(|e| invalid(context, e.to_string()))?;
    Ok(spec)
}

/// Serialize a [`FieldSpec`] to its normal wire form: the bare
/// distribution when the field is trivial (no trend, no noise, no
/// clamps), the full field object otherwise. Optional hyperparameters at
/// their defaults are omitted, so `field_from_json` inverts this exactly.
pub fn field_to_json(f: &FieldSpec) -> Json {
    let base = FieldSpec::from_dist(f.dist);
    if *f == base {
        return dist_to_json(&f.dist);
    }
    let mut fields = vec![("dist".to_string(), dist_to_json(&f.dist))];
    let mut push = |key: &str, v: f64, default: f64| {
        // NaN never appears in a validated spec, so == is exact here.
        if v != default {
            fields.push((key.to_string(), Json::Num(v)));
        }
    };
    push("trend", f.trend, base.trend);
    push("noise_sd", f.noise_sd, base.noise_sd);
    push(
        "correlation_dies",
        f.correlation_dies,
        base.correlation_dies,
    );
    push("clamp_lo", f.clamp_lo, base.clamp_lo);
    push("clamp_hi", f.clamp_hi, base.clamp_hi);
    Json::Obj(fields)
}

/// The stochastic scenario knobs, in canonical order. The order is part
/// of the determinism contract: knob `i` always derives its sample
/// stream from `split_seed(split_seed(seed, KNOB_SALT), i)`, so adding a
/// distribution to one knob never shifts another knob's draws —
/// `purity` was appended as knob 3 without moving knobs 0–2.
pub const STOCHASTIC_KNOBS: [&str; 4] = ["density", "l_cnt_um", "m_min", "purity"];

/// Seed salt separating knob realization from every other derived stream.
pub const KNOB_SALT: u64 = 0x6B6E_6F62; // "knob"

/// Domain clamp applied to a realized knob value, by knob index in
/// [`STOCHASTIC_KNOBS`]. Sampling can land outside the field's physical
/// domain (a Gaussian tail, an aggressive trend); the clamp keeps every
/// realized scenario valid by construction.
pub fn knob_domain(knob: usize) -> (f64, f64) {
    match knob {
        0 => (0.05, 20.0),     // density multiplier on ρ
        1 => (0.01, 10_000.0), // L_CNT (µm)
        2 => (1e-6, 1.0),      // M_min fraction
        3 => (0.5, 1.0),       // s-CNT purity (a probability near 1)
        _ => unreachable!("no such knob"),
    }
}

/// Quantize a realized knob value onto a relative grid of `2⁻¹⁰`
/// (≈ 0.1 % spacing).
///
/// Continuous sampling makes every die's realized scenario unique, which
/// would defeat the wafer engine's per-run result memo and any cache
/// keyed on knob values. Snapping to a relative grid bounds the rounding
/// error at one part in a thousand — far below the model's fidelity —
/// while collapsing a wafer's dies onto a few hundred distinct values
/// per knob octave.
pub fn quantize(v: f64) -> f64 {
    if v == 0.0 || !v.is_finite() {
        return v;
    }
    let step = 2.0_f64.powi(v.abs().log2().floor() as i32 - 10);
    (v / step).round() * step
}

/// Clamp then quantize one realized knob value.
///
/// The `purity` knob (index 3) quantizes in *impurity* space,
/// `1 − quantize(1 − v)`: purities of interest sit within `1e-5 … 1e-12`
/// of 1.0, where a relative grid on the value itself would collapse
/// every meaningful purity onto 1.0. Quantizing the defect fraction
/// keeps ~0.1 % relative spacing on the physically meaningful quantity.
pub fn snap(knob: usize, v: f64) -> f64 {
    let (lo, hi) = knob_domain(knob);
    let v = v.clamp(lo, hi);
    if knob == 3 {
        1.0 - quantize(1.0 - v)
    } else {
        quantize(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_number_is_fixed_and_round_trips() {
        let d = dist_from_json("density", &Json::Num(1.5)).unwrap();
        assert_eq!(d, DistSpec::Fixed(1.5));
        assert_eq!(dist_to_json(&d), Json::Num(1.5));
        assert!(dist_from_json("density", &Json::Num(f64::NAN)).is_err());
    }

    #[test]
    fn tagged_and_nested_forms_agree() {
        let tagged = dist_from_json(
            "l_cnt_um",
            &Json::parse(r#"{ "kind": "gaussian", "mean": 200, "sd": 20 }"#).unwrap(),
        )
        .unwrap();
        let nested = dist_from_json(
            "l_cnt_um",
            &Json::parse(r#"{ "gaussian": { "mean": 200, "sd": 20 } }"#).unwrap(),
        )
        .unwrap();
        assert_eq!(tagged, nested);
        assert_eq!(
            tagged,
            DistSpec::Gaussian {
                mean: 200.0,
                sd: 20.0
            }
        );
        // Normal form is the tagged object; it round-trips exactly.
        let wire = dist_to_json(&tagged);
        assert_eq!(dist_from_json("l_cnt_um", &wire).unwrap(), tagged);
    }

    #[test]
    fn every_kind_round_trips() {
        let specs = [
            DistSpec::Fixed(3.25),
            DistSpec::Gaussian { mean: 1.0, sd: 0.1 },
            DistSpec::TruncatedGaussian {
                mean: 1.0,
                sd: 0.25,
                lo: 0.5,
                hi: 2.0,
            },
            DistSpec::Uniform { lo: 0.8, hi: 1.2 },
            DistSpec::LogNormal {
                mu: 0.0,
                sigma: 0.3,
            },
        ];
        for spec in specs {
            let wire = dist_to_json(&spec);
            assert_eq!(dist_from_json("density", &wire).unwrap(), spec, "{spec:?}");
        }
    }

    #[test]
    fn unknown_kinds_and_params_get_suggestions() {
        let err = dist_from_json(
            "density",
            &Json::parse(r#"{ "kind": "gausian", "mean": 1, "sd": 0.1 }"#).unwrap(),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("did you mean `gaussian`"),
            "message: {err}"
        );
        let err = dist_from_json(
            "density",
            &Json::parse(r#"{ "kind": "gaussian", "mean": 1, "sD": 0.1 }"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("did you mean `sd`"), "{err}");
        let err = dist_from_json(
            "density",
            &Json::parse(r#"{ "uniforme": { "lo": 0, "hi": 1 } }"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("did you mean `uniform`"), "{err}");
    }

    #[test]
    fn bad_parameters_fail_at_parse_time() {
        assert!(dist_from_json(
            "density",
            &Json::parse(r#"{ "kind": "gaussian", "mean": 1, "sd": 0 }"#).unwrap(),
        )
        .is_err());
        assert!(dist_from_json(
            "density",
            &Json::parse(r#"{ "kind": "uniform", "lo": 2, "hi": 1 }"#).unwrap(),
        )
        .is_err());
        assert!(
            dist_from_json(
                "density",
                &Json::parse(r#"{ "kind": "gaussian" }"#).unwrap()
            )
            .is_err(),
            "missing parameters"
        );
        assert!(dist_from_json("density", &Json::Str("gaussian".into())).is_err());
    }

    #[test]
    fn field_forms_round_trip() {
        // A bare dist parses as a trivial field and serializes back bare.
        let trivial = field_from_json("density", &Json::Num(1.0)).unwrap();
        assert_eq!(trivial, FieldSpec::from_dist(DistSpec::Fixed(1.0)));
        assert_eq!(field_to_json(&trivial), Json::Num(1.0));
        // The full object form keeps only non-default hyperparameters.
        let full = field_from_json(
            "density",
            &Json::parse(
                r#"{ "dist": { "gaussian": { "mean": 1, "sd": 0.05 } },
                     "trend": -0.1, "noise_sd": 0.05, "correlation_dies": 24,
                     "clamp_lo": 0.5, "clamp_hi": 1.5 }"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(full.trend, -0.1);
        assert_eq!(full.correlation_dies, 24.0);
        let wire = field_to_json(&full);
        assert_eq!(field_from_json("density", &wire).unwrap(), full);
        // Defaulted hyperparameters are omitted from the wire form.
        let partial = field_from_json(
            "density",
            &Json::parse(r#"{ "dist": 2.0, "trend": 0.2 }"#).unwrap(),
        )
        .unwrap();
        let wire = partial_to_keys(&field_to_json(&partial));
        assert_eq!(wire, vec!["dist", "trend"]);
    }

    fn partial_to_keys(v: &Json) -> Vec<String> {
        v.as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    }

    #[test]
    fn field_rejects_unknown_keys_and_bad_hyperparameters() {
        let err = field_from_json(
            "density",
            &Json::parse(r#"{ "dist": 1.0, "noise_s": 0.1 }"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("did you mean `noise_sd`"), "{err}");
        assert!(field_from_json(
            "density",
            &Json::parse(r#"{ "dist": 1.0, "noise_sd": 0.9 }"#).unwrap(),
        )
        .is_err());
        assert!(
            field_from_json("density", &Json::parse(r#"{ "trend": 0.1 }"#).unwrap()).is_err(),
            "field object without dist"
        );
    }

    #[test]
    fn quantization_is_idempotent_and_tight() {
        for v in [0.0333, 1.0, 199.7, 0.051, 9999.0] {
            let q = quantize(v);
            assert!(((q - v) / v).abs() <= 2.0_f64.powi(-10), "{v} → {q}");
            assert_eq!(quantize(q), q, "idempotent at {v}");
        }
        assert_eq!(quantize(0.0), 0.0);
        // snap applies the knob domain clamp first.
        assert_eq!(snap(0, 100.0), 20.0);
        assert_eq!(snap(2, 1.5), 1.0);
    }

    #[test]
    fn purity_snaps_in_impurity_space() {
        // A purity 3.07e-9 below 1.0 keeps ~0.1 % *impurity* resolution
        // (value-space quantization would round it to exactly 1.0).
        let v = 1.0 - 3.07e-9;
        let q = snap(3, v);
        assert!(q < 1.0, "snapped to a pure 1.0");
        let impurity = 1.0 - q;
        assert!(
            ((impurity - 3.07e-9) / 3.07e-9).abs() <= 2.0_f64.powi(-10),
            "impurity {impurity:e}"
        );
        assert_eq!(snap(3, q), q, "idempotent");
        // Perfect purity and the domain clamp both stay exact.
        assert_eq!(snap(3, 1.0), 1.0);
        assert_eq!(snap(3, 3.0), 1.0);
        assert_eq!(snap(3, 0.1), 0.5);
    }
}
