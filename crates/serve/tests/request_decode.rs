//! The one-pass request decoder against its oracle, the tree-based
//! decoder it replaced: every frame of the 168-hour stringent plan,
//! seeded mutations of those frames, and every truncation of them must
//! decode to bitwise-equal requests or to equal errors.

use billcap_obs::json::Value;
use billcap_rt::{Rng, Xoshiro256pp};
use billcap_serve::build_plan;
use billcap_serve::protocol::{Request, RequestError};
use billcap_sim::Scenario;

/// The tree-based decoder: parse a [`Value`], then read its fields.
fn oracle(payload: &[u8]) -> Result<Request, RequestError> {
    let text = std::str::from_utf8(payload).map_err(|e| RequestError {
        id: None,
        message: format!("payload is not UTF-8: {e}"),
    })?;
    let v = Value::parse(text).map_err(|e| RequestError {
        id: None,
        message: format!("payload is not JSON: {e}"),
    })?;
    let id = v.get("id").and_then(Value::as_u64);
    let fail = |message: String| RequestError { id, message };
    let require_f64 = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| fail(format!("missing or non-numeric field '{key}'")))
    };
    let id_val = id.ok_or_else(|| fail("missing or non-integer field 'id'".into()))?;
    let policy =
        v.get("policy")
            .and_then(Value::as_u64)
            .ok_or_else(|| fail("missing or non-integer field 'policy'".into()))? as usize;
    let offered = require_f64("offered")?;
    let premium_offered = require_f64("premium")?;
    let background_mw = v
        .get("background")
        .and_then(Value::as_arr)
        .ok_or_else(|| fail("missing or non-array field 'background'".into()))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| fail("non-numeric element in 'background'".into()))
        })
        .collect::<Result<Vec<f64>, _>>()?;
    let hourly_budget = match v.get("budget") {
        None | Some(Value::Null) => f64::INFINITY,
        Some(b) => b
            .as_f64()
            .ok_or_else(|| fail("budget must be a number or null".into()))?,
    };
    let req = Request {
        id: id_val,
        policy,
        offered,
        premium_offered,
        background_mw,
        hourly_budget,
    };
    req.validate().map_err(&fail)?;
    Ok(req)
}

/// Bitwise equality of two decode results.
fn same(a: &Result<Request, RequestError>, b: &Result<Request, RequestError>) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.id == b.id
                && a.policy == b.policy
                && a.offered.to_bits() == b.offered.to_bits()
                && a.premium_offered.to_bits() == b.premium_offered.to_bits()
                && bits(&a.background_mw) == bits(&b.background_mw)
                && a.hourly_budget.to_bits() == b.hourly_budget.to_bits()
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// A JSON renderer with seeded whitespace and key escapes.
struct Writer {
    rng: Xoshiro256pp,
    /// Insert whitespace between tokens.
    spaces: bool,
    /// Spell some key characters as `\u` escapes.
    escapes: bool,
}

impl Writer {
    fn ws(&mut self, out: &mut String) {
        if self.spaces {
            for _ in 0..self.rng.random_below(3) {
                out.push([' ', '\t', '\n', '\r'][self.rng.random_below(4) as usize]);
            }
        }
    }

    fn key(&mut self, key: &str, out: &mut String) {
        out.push('"');
        for c in key.chars() {
            if self.escapes && self.rng.random_below(2) == 0 {
                out.push_str(&format!("\\u{:04x}", c as u32));
            } else {
                out.push(c);
            }
        }
        out.push('"');
    }

    fn value(&mut self, v: &Value, out: &mut String) {
        self.ws(out);
        match v {
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.value(item, out);
                }
                self.ws(out);
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, item)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.ws(out);
                    self.key(k, out);
                    self.ws(out);
                    out.push(':');
                    self.value(item, out);
                }
                self.ws(out);
                out.push('}');
            }
            scalar => out.push_str(&scalar.render()),
        }
        self.ws(out);
    }
}

const KEYS: [&str; 6] = ["id", "policy", "offered", "premium", "background", "budget"];

/// A value of a random shape, nested up to `depth` levels.
fn random_value(rng: &mut Xoshiro256pp, depth: usize) -> Value {
    match rng.random_below(if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.random_below(2) == 0),
        2 => Value::Int(rng.random_i64_in(-5, 1_000_000)),
        3 => Value::Float(rng.random_i64_in(-100, 100) as f64 * 0.375),
        4 => Value::Str(["", "x", "é日本🦀", "a\"b\\c\n"][rng.random_below(4) as usize].into()),
        5 => Value::Int(-(rng.random_below(10) as i64)),
        6 => Value::Arr(
            (0..rng.random_below(4))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Obj(
            (0..rng.random_below(4))
                .map(|i| (format!("k{i}"), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Spellings of a number whose parse is not its canonical render:
/// Int for Float and back, exponents, signs, overflow.
fn raw_number(rng: &mut Xoshiro256pp, v: &Value) -> String {
    let x = v.as_f64().unwrap_or(1.0);
    match rng.random_below(8) {
        0 => format!("{}", x.trunc() as i64),
        1 => format!("{x:e}"),
        2 => format!("{:.1}", x.trunc()),
        3 => "-0".into(),
        4 => "9223372036854775808".into(),
        5 => "-9223372036854775809".into(),
        6 => "1e400".into(),
        _ => format!("{}E+0", x.trunc() as i64),
    }
}

/// One seeded mutation of a request's key/value pairs, rendered.
fn mutate(rng: &mut Xoshiro256pp, pairs: &[(String, Value)]) -> String {
    let mut pairs = pairs.to_vec();
    let mut raw: Option<(String, String)> = None;
    match rng.random_below(9) {
        // Shuffled key order.
        0 => {
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.random_below(i as u64 + 1) as usize);
            }
        }
        // Unknown keys with nested values.
        1 => {
            for _ in 0..1 + rng.random_below(3) {
                let at = rng.random_below(pairs.len() as u64 + 1) as usize;
                pairs.insert(at, ("extra".into(), random_value(rng, 3)));
            }
        }
        // A duplicate key, before or after the original.
        2 => {
            let i = rng.random_below(pairs.len() as u64) as usize;
            let dup = (pairs[i].0.clone(), random_value(rng, 2));
            let at = if rng.random_below(2) == 0 { i } else { i + 1 };
            pairs.insert(at, dup);
        }
        // A field of the wrong type, nested or scalar.
        3 => {
            let i = rng.random_below(pairs.len() as u64) as usize;
            pairs[i].1 = random_value(rng, 2);
        }
        // A missing field.
        4 => {
            pairs.remove(rng.random_below(pairs.len() as u64) as usize);
        }
        // A background element of the wrong type.
        5 => {
            if let Some((_, Value::Arr(items))) = pairs.iter_mut().find(|(k, _)| k == "background")
            {
                let at = rng.random_below(items.len() as u64 + 1) as usize;
                items.insert(at, random_value(rng, 1));
            }
        }
        // A number spelled another way: Int for Float and back,
        // exponents, i64 overflow.
        6 => {
            let key = KEYS[rng.random_below(KEYS.len() as u64) as usize];
            if let Some(i) = pairs.iter().position(|(k, _)| k == key) {
                let (k, v) = pairs.remove(i);
                raw = Some((k, raw_number(rng, &v)));
            }
        }
        // A non-object top level.
        7 => {
            let top = match rng.random_below(4) {
                0 => Value::Arr(pairs.into_iter().map(|(_, v)| v).collect()),
                1 => Value::Str("id".into()),
                2 => Value::Int(7),
                _ => Value::Null,
            };
            return top.render();
        }
        // A budget of `null` (+∞) or absent.
        _ => {
            if let Some(i) = pairs.iter().position(|(k, _)| k == "budget") {
                if rng.random_below(2) == 0 {
                    pairs[i].1 = Value::Null;
                } else {
                    pairs.remove(i);
                }
            }
        }
    }
    let mut w = Writer {
        spaces: rng.random_below(2) == 0,
        escapes: rng.random_below(3) == 0,
        rng: Xoshiro256pp::seed_from_u64(rng.next_u64()),
    };
    let mut out = String::new();
    w.value(&Value::Obj(pairs), &mut out);
    if let Some((k, number)) = raw {
        // Splice the raw spelling in as the last pair.
        let close = out.rfind('}').expect("an object renders a closing brace");
        let sep = if out[..close].trim_end().ends_with('{') {
            ""
        } else {
            ","
        };
        out.insert_str(close, &format!("{sep}\"{k}\":{number}"));
    }
    out
}

#[test]
fn one_pass_decoder_matches_the_tree_decoder() {
    let plan = build_plan(1, 42, 168, Some(Scenario::STRINGENT_BUDGET)).unwrap();
    let frames: Vec<String> = plan
        .requests
        .iter()
        .map(|r| r.to_value().render())
        .collect();
    let mut rng = Xoshiro256pp::seed_from_u64(0xDEC0DE);
    let mut corpus: Vec<Vec<u8>> = Vec::new();
    for frame in &frames {
        corpus.push(frame.clone().into_bytes());
        let Value::Obj(pairs) = Value::parse(frame).unwrap() else {
            panic!("a request renders an object");
        };
        for _ in 0..24 {
            corpus.push(mutate(&mut rng, &pairs).into_bytes());
        }
    }
    // Every truncation of every plan frame and of some mutants: the
    // stride is coprime to the 25-entry blocks (a frame and its 24
    // mutants), so it lands on 82 mutants.
    let mutants: Vec<Vec<u8>> = corpus.iter().step_by(49).cloned().collect();
    for full in frames
        .iter()
        .map(|f| f.as_bytes())
        .chain(mutants.iter().map(Vec::as_slice))
    {
        for cut in 0..full.len() {
            corpus.push(full[..cut].to_vec());
        }
    }
    corpus.push(vec![0xff, 0xfe]);
    corpus.push(b"{\"id\":1,\"policy\":1,\xc3}".to_vec());

    let (mut ok, mut errors) = (0, 0);
    for payload in &corpus {
        let got = Request::parse(payload);
        let want = oracle(payload);
        assert!(
            same(&got, &want),
            "{:?}\n  one-pass: {got:?}\n  tree:     {want:?}",
            String::from_utf8_lossy(payload)
        );
        if got.is_ok() {
            ok += 1;
        } else {
            errors += 1;
        }
    }
    // The corpus reaches both sides and every field error.
    assert!(ok > frames.len() && errors > ok, "{ok} ok, {errors} errors");
    let messages: Vec<String> = corpus
        .iter()
        .filter_map(|p| Request::parse(p).err().map(|e| e.message))
        .collect();
    for needle in [
        "payload is not UTF-8",
        "payload is not JSON",
        "field 'id'",
        "field 'policy'",
        "field 'offered'",
        "field 'premium'",
        "non-array field 'background'",
        "non-numeric element in 'background'",
        "budget must be a number or null",
    ] {
        assert!(
            messages.iter().any(|m| m.contains(needle)),
            "no corpus frame earned {needle:?}"
        );
    }
}

#[test]
fn deep_nesting_is_skipped_without_recursion() {
    // Far deeper than any stack frame per level would allow.
    let depth = 1 << 19;
    let mut payload = String::from("{\"id\":3,\"extra\":");
    payload.push_str(&"[".repeat(depth));
    payload.push_str(&"]".repeat(depth));
    payload.push('}');
    let err = Request::parse(payload.as_bytes()).unwrap_err();
    assert_eq!(err.id, Some(3));
    assert_eq!(err.message, "missing or non-integer field 'policy'");
}

/// `depth` nested arrays, opened and closed.
fn nested(depth: usize) -> String {
    let mut s = "[".repeat(depth);
    s.push_str(&"]".repeat(depth));
    s
}

#[test]
fn deep_nesting_inside_background_is_refused_without_recursion() {
    let payload = format!(
        "{{\"id\":3,\"policy\":1,\"offered\":5e8,\"premium\":3e8,\"background\":[330.0,{}]}}",
        nested(1 << 19)
    );
    let err = Request::parse(payload.as_bytes()).unwrap_err();
    assert_eq!(err.id, Some(3));
    assert_eq!(err.message, "non-numeric element in 'background'");
}

#[test]
fn deep_nesting_as_the_budget_is_refused_without_recursion() {
    let payload = format!(
        "{{\"id\":3,\"policy\":1,\"offered\":5e8,\"premium\":3e8,\"background\":[330.0],\"budget\":{}}}",
        nested(1 << 19)
    );
    let err = Request::parse(payload.as_bytes()).unwrap_err();
    assert_eq!(err.id, Some(3));
    assert_eq!(err.message, "budget must be a number or null");
}
