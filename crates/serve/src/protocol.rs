//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one *frame*: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON.
//! Frames are self-delimiting, so a stream of them needs no separators
//! and binary-safe transports (pipes, Unix sockets) carry them as-is.
//!
//! Floats ride on [`billcap_obs::json`], whose shortest-round-trip
//! rendering reproduces every finite `f64` bit-for-bit — the protocol
//! therefore transports decisions *exactly*, which is what lets the
//! differential tests compare served responses against in-process
//! solves with `to_bits` equality. The single non-finite value the
//! domain needs, an unlimited budget (`+∞`), is encoded as JSON `null`.
//!
//! A request names a paper pricing policy (0..=3) instead of shipping
//! the whole data-center spec; the server builds and retains one
//! [`billcap_core::DecisionEngine`] per (worker, policy).
//!
//! Responses carry only the deterministic parts of a decision: the
//! full allocation vectors, the served/offered scalars, and the
//! `solves`/`nodes`/`lp_iterations` counters. Wall-clock fields of
//! [`billcap_core::DecisionTrace`] are machine noise and never cross
//! the wire.
//!
//! Two renderers produce decision frames. [`Response::to_value`] builds
//! a [`Value`] tree: the client-side API and the test oracle. The
//! server writes bytes directly with [`render_decision_body`] and
//! [`render_decision_frame`], which produce exactly the bytes of the
//! `Value` rendering without building the tree or calling `core::fmt`,
//! so the body can be rendered once and served again behind any id.
//! Both write numbers with the same writers, [`write_f64`] and
//! [`write_i64`].

use billcap_core::{validate_hour_inputs, CoreError, HourDecision, HourOutcome};
use billcap_obs::json::{write_f64, write_i64, JsonError, Lexer, Number, Token, Value};
use billcap_obs::MetricsDoc;
use std::io::{Read, Write};

/// Default maximum frame payload (1 MiB) — far above any real request,
/// small enough that a hostile length prefix cannot balloon memory.
pub const MAX_FRAME: usize = 1 << 20;

/// Framing failures. Anything here poisons the *stream* (a frame
/// boundary was lost), as opposed to per-request JSON errors, which are
/// answered in-band and leave the stream usable.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended inside a header or payload.
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The header announced a payload larger than the configured cap.
    Oversized {
        /// Announced payload length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The underlying transport failed.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated frame: expected {expected} more bytes, got {got}"
                )
            }
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (EOF exactly at
/// a frame boundary); EOF anywhere else is [`FrameError::Truncated`].
pub fn read_frame<R: Read + ?Sized>(
    r: &mut R,
    max_payload: usize,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Truncated {
                    expected: 4 - filled,
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max_payload {
        return Err(FrameError::Oversized {
            len,
            max: max_payload,
        });
    }
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    expected: len - got,
                    got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some(payload))
}

/// The 4-byte big-endian header announcing a `len`-byte payload.
fn frame_header(len: usize) -> std::io::Result<[u8; 4]> {
    let len = u32::try_from(len).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame payload exceeds u32::MAX",
        )
    })?;
    Ok(len.to_be_bytes())
}

/// Writes one frame (header + payload). The caller flushes.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&frame_header(payload.len())?)?;
    w.write_all(payload)
}

/// Renders one whole decision response frame into `out`, replacing its
/// contents: the header, `{"type":"decision","id":N,"cached":B` and
/// `body`, the id-free rest from [`render_decision_body`].
///
/// The payload is byte-identical to
/// `Response::Decision(DecisionMsg::from_decision(id, d, cached)).to_value().render()`
/// for the decision `d` that `body` was rendered from.
pub fn render_decision_frame(
    out: &mut Vec<u8>,
    id: u64,
    cached: bool,
    body: &[u8],
) -> std::io::Result<()> {
    start_decision_frame(out, id, cached);
    out.extend_from_slice(body);
    finish_frame(out)
}

/// Renders the whole response frame of a decision `d` just made into
/// `out`, as [`render_decision_frame`] with `cached` false and `d`'s
/// body, and returns where that body starts in `out`: the bytes a cache
/// keeps for a later hit.
pub(crate) fn render_fresh_decision_frame(
    out: &mut Vec<u8>,
    id: u64,
    d: &HourDecision,
) -> std::io::Result<usize> {
    start_decision_frame(out, id, false);
    let body = out.len();
    write_decision_body(out, d);
    finish_frame(out)?;
    Ok(body)
}

/// Replaces `out` with a placeholder header and the id-carrying start
/// of a decision payload.
fn start_decision_frame(out: &mut Vec<u8>, id: u64, cached: bool) {
    out.clear();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(b"{\"type\":\"decision\",\"id\":");
    // `DecisionMsg::to_value` renders the id as `Value::Int(id as i64)`.
    write_i64(out, id as i64);
    out.extend_from_slice(if cached {
        b",\"cached\":true"
    } else {
        b",\"cached\":false"
    });
}

/// Fills in the header of the frame that fills `out`.
pub(crate) fn finish_frame(out: &mut [u8]) -> std::io::Result<()> {
    let header = frame_header(out.len() - 4)?;
    out[..4].copy_from_slice(&header);
    Ok(())
}

/// Room for a decision body on the paper's three-site networks (about
/// 600 bytes), so that rendering one grows no buffer.
const BODY_CAPACITY: usize = 1024;

/// Renders the id-free body of a decision response:
/// `,"outcome":…,"lp_iterations":N}`. Keys come in the order of
/// [`DecisionMsg::to_value`], and numbers through the writers
/// `Value::render` uses ([`write_f64`], [`write_i64`]), so the body
/// completes [`render_decision_frame`]'s prefix into the exact bytes of
/// the `Value` rendering.
pub fn render_decision_body(d: &HourDecision) -> Box<[u8]> {
    let mut out = Vec::with_capacity(BODY_CAPACITY);
    write_decision_body(&mut out, d);
    out.into_boxed_slice()
}

/// Appends the body [`render_decision_body`] returns: keys as byte
/// literals, numbers without `core::fmt`.
fn write_decision_body(out: &mut Vec<u8>, d: &HourDecision) {
    fn float(out: &mut Vec<u8>, key: &[u8], x: f64) {
        out.extend_from_slice(key);
        write_f64(out, x);
    }
    fn int(out: &mut Vec<u8>, key: &[u8], x: i64) {
        out.extend_from_slice(key);
        write_i64(out, x);
    }
    fn list<T: Copy>(out: &mut Vec<u8>, key: &[u8], items: &[T], write: fn(&mut Vec<u8>, T)) {
        out.extend_from_slice(key);
        out.push(b'[');
        for (i, &x) in items.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            write(out, x);
        }
        out.push(b']');
    }
    let a = &d.allocation;
    out.extend_from_slice(b",\"outcome\":\"");
    out.extend_from_slice(outcome_tag(d.outcome).as_bytes());
    out.push(b'"');
    float(out, b",\"offered\":", d.offered);
    float(out, b",\"premium_offered\":", d.premium_offered);
    float(out, b",\"premium_served\":", d.premium_served);
    float(out, b",\"ordinary_served\":", d.ordinary_served);
    // As `budget_to_value`: a non-finite budget renders as `null`.
    if d.budget.is_finite() {
        float(out, b",\"budget\":", d.budget);
    } else {
        out.extend_from_slice(b",\"budget\":null");
    }
    list(out, b",\"lambda\":", &a.lambda, write_f64);
    // Counts and indices render as `DecisionMsg::to_value`'s
    // `Value::Int(n as i64)`.
    list(out, b",\"servers\":", &a.servers, |out, s| {
        write_i64(out, s as i64)
    });
    list(out, b",\"power_mw\":", &a.power_mw, write_f64);
    list(out, b",\"price\":", &a.price, write_f64);
    list(out, b",\"level\":", &a.level, |out, k| {
        write_i64(out, k as i64)
    });
    list(out, b",\"cost\":", &a.cost, write_f64);
    float(out, b",\"total_cost\":", a.total_cost);
    float(out, b",\"total_lambda\":", a.total_lambda);
    int(out, b",\"solves\":", d.trace.solves as i64);
    int(out, b",\"nodes\":", d.trace.nodes as i64);
    int(out, b",\"lp_iterations\":", d.trace.lp_iterations as i64);
    out.push(b'}');
}

/// Renders a maybe-infinite budget: `null` encodes `+∞`.
fn budget_to_value(budget: f64) -> Value {
    if budget.is_finite() {
        Value::Float(budget)
    } else {
        Value::Null
    }
}

/// Parses a maybe-null budget; absent and `null` both mean unlimited.
fn budget_from_value(v: Option<&Value>) -> Result<f64, String> {
    match v {
        None | Some(Value::Null) => Ok(f64::INFINITY),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| "budget must be a number or null".to_string()),
    }
}

fn require_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
}

fn require_f64_vec(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    let arr = v
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing or non-array field '{key}'"))?;
    arr.iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("non-numeric element in '{key}'"))
        })
        .collect()
}

fn require_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

/// One decide-hour request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// Paper pricing-policy family (0..=3) selecting the system.
    pub policy: usize,
    /// Total offered rate (requests/hour).
    pub offered: f64,
    /// Premium share of the offered rate.
    pub premium_offered: f64,
    /// Regional background demand per site (MW).
    pub background_mw: Vec<f64>,
    /// Hourly budget ($); `f64::INFINITY` (JSON `null`) = unlimited.
    pub hourly_budget: f64,
}

/// Highest pricing-policy family index the server will instantiate.
const MAX_POLICY: usize = 3;

impl Request {
    /// Renders the request as a JSON payload.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), Value::Int(self.id as i64)),
            ("policy".into(), Value::Int(self.policy as i64)),
            ("offered".into(), Value::Float(self.offered)),
            ("premium".into(), Value::Float(self.premium_offered)),
            (
                "background".into(),
                Value::Arr(
                    self.background_mw
                        .iter()
                        .map(|&d| Value::Float(d))
                        .collect(),
                ),
            ),
            ("budget".into(), budget_to_value(self.hourly_budget)),
        ])
    }

    /// Parses and validates a request payload. On failure the error
    /// carries the request id when one could be extracted, so the
    /// server can still correlate the error response.
    ///
    /// The payload is decoded in one pass of the JSON [`Lexer`]
    /// straight into the request's fields; no [`Value`] is built. The
    /// whole document is syntax-checked before any field error, the
    /// first occurrence of a key wins, and unknown keys are skipped.
    pub fn parse(payload: &[u8]) -> Result<Request, RequestError> {
        let text = std::str::from_utf8(payload).map_err(|e| RequestError {
            id: None,
            message: format!("payload is not UTF-8: {e}"),
        })?;
        let fields = RequestFields::decode(text).map_err(|e| RequestError {
            id: None,
            message: format!("payload is not JSON: {e}"),
        })?;
        let req = fields.into_request()?;
        req.validate().map_err(|message| RequestError {
            id: Some(req.id),
            message,
        })?;
        Ok(req)
    }

    /// Domain validation: everything that would panic or misbehave
    /// deeper in the stack is rejected here with a message instead.
    pub fn validate(&self) -> Result<(), String> {
        if self.policy > MAX_POLICY {
            return Err(format!(
                "policy {} out of range (0..={MAX_POLICY})",
                self.policy
            ));
        }
        if self.background_mw.is_empty() {
            return Err("background demand vector is empty".into());
        }
        // The decider's own input rules, with its messages.
        validate_hour_inputs(
            self.offered,
            self.premium_offered,
            &self.background_mw,
            self.hourly_budget,
        )
        .map_err(|e| match e {
            CoreError::InvalidInput(msg) => msg,
            e => e.to_string(),
        })?;
        Ok(())
    }
}

/// A request that could not be parsed or validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The request id, when it could be extracted from the payload.
    pub id: Option<u64>,
    /// What went wrong.
    pub message: String,
}

/// Capacity of the decoded background vector: one allocation holds
/// every site of the networks up to 16 sites, the paper's included.
const BACKGROUND_CAPACITY: usize = 16;

const NON_ARRAY_BACKGROUND: &str = "missing or non-array field 'background'";

/// The request's fields as one lexer pass finds them. Each is `None`
/// until its key first occurs, then holds what that occurrence's value
/// gave, `None` inside when the value had the wrong type.
#[derive(Default)]
struct RequestFields {
    id: Option<Option<u64>>,
    policy: Option<Option<u64>>,
    offered: Option<Option<f64>>,
    premium: Option<Option<f64>>,
    /// The values, or the field error the array earned.
    background: Option<Result<Vec<f64>, &'static str>>,
    /// `null` reads as `+∞`.
    budget: Option<Option<f64>>,
}

// detlint-hot-start(request decoder): runs once per request frame; its
// one allocation is the background vector.
impl RequestFields {
    /// Reads the whole document, checking its syntax end to end.
    fn decode(text: &str) -> Result<Self, JsonError> {
        let mut lx = Lexer::new(text);
        let mut f = Self::default();
        match lx.value()? {
            Token::Obj(mut items) => {
                while items.next(&mut lx)? {
                    let key = lx.key()?;
                    match &*key {
                        "id" if f.id.is_none() => {
                            f.id = Some(lx.number_or_skip()?.and_then(Number::as_u64));
                        }
                        "policy" if f.policy.is_none() => {
                            f.policy = Some(lx.number_or_skip()?.and_then(Number::as_u64));
                        }
                        "offered" if f.offered.is_none() => {
                            f.offered = Some(lx.number_or_skip()?.map(Number::as_f64));
                        }
                        "premium" if f.premium.is_none() => {
                            f.premium = Some(lx.number_or_skip()?.map(Number::as_f64));
                        }
                        "background" if f.background.is_none() => {
                            f.background = Some(decode_background(&mut lx)?);
                        }
                        "budget" if f.budget.is_none() => {
                            f.budget = Some(match lx.value()? {
                                Token::Null => Some(f64::INFINITY),
                                Token::Num(n) => Some(n.as_f64()),
                                token => lx.skip_rest(token).map(|()| None)?,
                            });
                        }
                        _ => lx.skip_value()?,
                    }
                }
            }
            token => lx.skip_rest(token)?,
        }
        lx.finish()?;
        Ok(f)
    }

    /// The request, or the first field error in field order (`id`,
    /// `policy`, `offered`, `premium`, `background`, `budget`),
    /// carrying the id when it parsed.
    fn into_request(self) -> Result<Request, RequestError> {
        let id = self.id.flatten();
        let fail = |message: String| RequestError { id, message };
        let non_numeric = |key: &str| fail(format!("missing or non-numeric field '{key}'"));
        Ok(Request {
            id: id.ok_or_else(|| fail("missing or non-integer field 'id'".into()))?,
            policy: self
                .policy
                .flatten()
                .ok_or_else(|| fail("missing or non-integer field 'policy'".into()))?
                as usize,
            offered: self
                .offered
                .flatten()
                .ok_or_else(|| non_numeric("offered"))?,
            premium_offered: self
                .premium
                .flatten()
                .ok_or_else(|| non_numeric("premium"))?,
            background_mw: self
                .background
                .unwrap_or(Err(NON_ARRAY_BACKGROUND))
                .map_err(|message| fail(message.into()))?,
            hourly_budget: self
                .budget
                .unwrap_or(Some(f64::INFINITY))
                .ok_or_else(|| fail("budget must be a number or null".into()))?,
        })
    }
}

/// Reads the `background` value: its numbers, or the field error a
/// non-array or a non-numeric element earns.
fn decode_background(lx: &mut Lexer<'_>) -> Result<Result<Vec<f64>, &'static str>, JsonError> {
    let mut items = match lx.value()? {
        Token::Arr(items) => items,
        token => {
            lx.skip_rest(token)?;
            return Ok(Err(NON_ARRAY_BACKGROUND));
        }
    };
    let mut out = Ok(Vec::with_capacity(BACKGROUND_CAPACITY));
    while items.next(lx)? {
        match (lx.number_or_skip()?, &mut out) {
            (Some(n), Ok(values)) => values.push(n.as_f64()),
            (Some(_), Err(_)) => {}
            (None, _) => out = Err("non-numeric element in 'background'"),
        }
    }
    Ok(out)
}
// detlint-hot-end

/// An in-band control frame: `{"op":"metrics"}` or `{"op":"health"}`,
/// with an optional `id` echoed on the response.
///
/// Control frames are answered by the server's reader thread directly —
/// they never enter the decision queue, so a scrape observes the
/// workers instead of competing with them. The `"op"` key is reserved:
/// decide requests carry no string values at all, so the byte sequence
/// `"op"` can only appear in a control frame (see
/// `maybe_control`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMsg {
    /// Ask for the current [`MetricsDoc`].
    Metrics {
        /// Optional correlation id, echoed back.
        id: Option<u64>,
    },
    /// Ask for an ok/degraded health verdict.
    Health {
        /// Optional correlation id, echoed back.
        id: Option<u64>,
    },
}

impl ControlMsg {
    /// Cheap pre-filter: does the payload contain the byte sequence
    /// `"op"`? Decide requests never do (their only strings are the
    /// fixed field names, none of which contains `"op"` quoted), so the
    /// reader runs this O(n) scan instead of parsing JSON per frame.
    pub(crate) fn maybe_control(payload: &[u8]) -> bool {
        payload.windows(4).any(|w| w == b"\"op\"")
    }

    /// Parses a control frame. `Ok(None)` means the payload has no
    /// `"op"` key and should be treated as an ordinary request;
    /// `Err` means it names an op the server does not know.
    pub fn parse(payload: &[u8]) -> Result<Option<ControlMsg>, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("not UTF-8: {e}"))?;
        let v = Value::parse(text).map_err(|e| format!("not JSON: {e}"))?;
        let Some(op) = v.get("op").and_then(Value::as_str) else {
            return Ok(None);
        };
        let id = v.get("id").and_then(Value::as_u64);
        match op {
            "metrics" => Ok(Some(ControlMsg::Metrics { id })),
            "health" => Ok(Some(ControlMsg::Health { id })),
            other => Err(format!("unknown control op '{other}'")),
        }
    }

    /// Renders the control frame (the client half).
    pub fn to_value(&self) -> Value {
        let (op, id) = match self {
            ControlMsg::Metrics { id } => ("metrics", id),
            ControlMsg::Health { id } => ("health", id),
        };
        let mut fields = vec![("op".to_string(), Value::Str(op.into()))];
        if let Some(i) = id {
            fields.push(("id".into(), Value::Int(*i as i64)));
        }
        Value::Obj(fields)
    }
}

fn outcome_tag(outcome: HourOutcome) -> &'static str {
    match outcome {
        HourOutcome::WithinBudget => "within_budget",
        HourOutcome::Throttled => "throttled",
        HourOutcome::PremiumOverride => "premium_override",
    }
}

fn outcome_from_tag(tag: &str) -> Result<HourOutcome, String> {
    match tag {
        "within_budget" => Ok(HourOutcome::WithinBudget),
        "throttled" => Ok(HourOutcome::Throttled),
        "premium_override" => Ok(HourOutcome::PremiumOverride),
        other => Err(format!("unknown outcome '{other}'")),
    }
}

/// The deterministic image of an [`HourDecision`], as shipped to the
/// client. Excludes the wall-clock trace fields (machine noise) and
/// includes the `cached` marker.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionMsg {
    /// Echoed request id.
    pub id: u64,
    /// Whether the decision was answered from the decision cache.
    pub cached: bool,
    /// Which branch of the algorithm produced the decision.
    pub outcome: HourOutcome,
    /// Offered rate after the capacity clamp.
    pub offered: f64,
    /// Premium share of the offered rate.
    pub premium_offered: f64,
    /// Premium requests served.
    pub premium_served: f64,
    /// Ordinary requests served.
    pub ordinary_served: f64,
    /// Budget the decision was made against (`∞` = unlimited).
    pub budget: f64,
    /// Per-site admitted rate (requests/hour).
    pub lambda: Vec<f64>,
    /// Per-site active server count.
    pub servers: Vec<u64>,
    /// Per-site power draw (MW).
    pub power_mw: Vec<f64>,
    /// Per-site electricity price ($/MWh).
    pub price: Vec<f64>,
    /// Per-site selected price level.
    pub level: Vec<usize>,
    /// Per-site cost ($).
    pub cost: Vec<f64>,
    /// Total cost ($).
    pub total_cost: f64,
    /// Total admitted rate (requests/hour).
    pub total_lambda: f64,
    /// MILP solves performed for this decision.
    pub solves: usize,
    /// Branch-and-bound nodes across the solves.
    pub nodes: usize,
    /// Simplex iterations across the solves.
    pub lp_iterations: usize,
}

impl DecisionMsg {
    /// Projects a finished decision onto the wire shape.
    pub fn from_decision(id: u64, d: &HourDecision, cached: bool) -> Self {
        Self {
            id,
            cached,
            outcome: d.outcome,
            offered: d.offered,
            premium_offered: d.premium_offered,
            premium_served: d.premium_served,
            ordinary_served: d.ordinary_served,
            budget: d.budget,
            lambda: d.allocation.lambda.clone(),
            servers: d.allocation.servers.clone(),
            power_mw: d.allocation.power_mw.clone(),
            price: d.allocation.price.clone(),
            level: d.allocation.level.clone(),
            cost: d.allocation.cost.clone(),
            total_cost: d.allocation.total_cost,
            total_lambda: d.allocation.total_lambda,
            solves: d.trace.solves,
            nodes: d.trace.nodes,
            lp_iterations: d.trace.lp_iterations,
        }
    }

    /// Renders the decision as a JSON payload.
    pub fn to_value(&self) -> Value {
        let farr = |v: &[f64]| Value::Arr(v.iter().map(|&f| Value::Float(f)).collect());
        Value::Obj(vec![
            ("type".into(), Value::Str("decision".into())),
            ("id".into(), Value::Int(self.id as i64)),
            ("cached".into(), Value::Bool(self.cached)),
            (
                "outcome".into(),
                Value::Str(outcome_tag(self.outcome).into()),
            ),
            ("offered".into(), Value::Float(self.offered)),
            ("premium_offered".into(), Value::Float(self.premium_offered)),
            ("premium_served".into(), Value::Float(self.premium_served)),
            ("ordinary_served".into(), Value::Float(self.ordinary_served)),
            ("budget".into(), budget_to_value(self.budget)),
            ("lambda".into(), farr(&self.lambda)),
            (
                "servers".into(),
                Value::Arr(self.servers.iter().map(|&s| Value::Int(s as i64)).collect()),
            ),
            ("power_mw".into(), farr(&self.power_mw)),
            ("price".into(), farr(&self.price)),
            (
                "level".into(),
                Value::Arr(self.level.iter().map(|&k| Value::Int(k as i64)).collect()),
            ),
            ("cost".into(), farr(&self.cost)),
            ("total_cost".into(), Value::Float(self.total_cost)),
            ("total_lambda".into(), Value::Float(self.total_lambda)),
            ("solves".into(), Value::Int(self.solves as i64)),
            ("nodes".into(), Value::Int(self.nodes as i64)),
            (
                "lp_iterations".into(),
                Value::Int(self.lp_iterations as i64),
            ),
        ])
    }

    /// Parses a decision payload (the client half of the protocol).
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let uvec = |key: &str| -> Result<Vec<u64>, String> {
            let arr = v
                .get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("missing or non-array field '{key}'"))?;
            arr.iter()
                .map(|x| {
                    x.as_u64()
                        .ok_or_else(|| format!("non-integer element in '{key}'"))
                })
                .collect()
        };
        Ok(Self {
            id: require_u64(v, "id")?,
            cached: matches!(v.get("cached"), Some(Value::Bool(true))),
            outcome: outcome_from_tag(
                v.get("outcome")
                    .and_then(Value::as_str)
                    .ok_or("missing field 'outcome'")?,
            )?,
            offered: require_f64(v, "offered")?,
            premium_offered: require_f64(v, "premium_offered")?,
            premium_served: require_f64(v, "premium_served")?,
            ordinary_served: require_f64(v, "ordinary_served")?,
            budget: budget_from_value(v.get("budget"))?,
            lambda: require_f64_vec(v, "lambda")?,
            servers: uvec("servers")?,
            power_mw: require_f64_vec(v, "power_mw")?,
            price: require_f64_vec(v, "price")?,
            level: uvec("level")?.into_iter().map(|k| k as usize).collect(),
            cost: require_f64_vec(v, "cost")?,
            total_cost: require_f64(v, "total_cost")?,
            total_lambda: require_f64(v, "total_lambda")?,
            solves: require_u64(v, "solves")? as usize,
            nodes: require_u64(v, "nodes")? as usize,
            lp_iterations: require_u64(v, "lp_iterations")? as usize,
        })
    }

    /// Checks this message against a locally computed decision with
    /// raw-bit float equality. Returns the first mismatching field.
    pub fn bitwise_matches(&self, d: &HourDecision) -> Result<(), String> {
        fn feq(name: &str, a: f64, b: f64) -> Result<(), String> {
            if a.to_bits() == b.to_bits() || (a == f64::INFINITY && b == f64::INFINITY) {
                Ok(())
            } else {
                Err(format!("{name}: served {a:?} != expected {b:?}"))
            }
        }
        fn veq(name: &str, a: &[f64], b: &[f64]) -> Result<(), String> {
            if a.len() != b.len() {
                return Err(format!("{name}: length {} != {}", a.len(), b.len()));
            }
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                feq(&format!("{name}[{i}]"), *x, *y)?;
            }
            Ok(())
        }
        if self.outcome != d.outcome {
            return Err(format!(
                "outcome: served {:?} != expected {:?}",
                self.outcome, d.outcome
            ));
        }
        feq("offered", self.offered, d.offered)?;
        feq("premium_offered", self.premium_offered, d.premium_offered)?;
        feq("premium_served", self.premium_served, d.premium_served)?;
        feq("ordinary_served", self.ordinary_served, d.ordinary_served)?;
        feq("budget", self.budget, d.budget)?;
        veq("lambda", &self.lambda, &d.allocation.lambda)?;
        if self.servers != d.allocation.servers {
            return Err("servers: vector mismatch".into());
        }
        veq("power_mw", &self.power_mw, &d.allocation.power_mw)?;
        veq("price", &self.price, &d.allocation.price)?;
        if self.level != d.allocation.level {
            return Err("level: vector mismatch".into());
        }
        veq("cost", &self.cost, &d.allocation.cost)?;
        feq("total_cost", self.total_cost, d.allocation.total_cost)?;
        feq("total_lambda", self.total_lambda, d.allocation.total_lambda)?;
        if self.solves != d.trace.solves {
            return Err(format!(
                "solves: served {} != expected {}",
                self.solves, d.trace.solves
            ));
        }
        if self.nodes != d.trace.nodes {
            return Err(format!(
                "nodes: served {} != expected {}",
                self.nodes, d.trace.nodes
            ));
        }
        if self.lp_iterations != d.trace.lp_iterations {
            return Err(format!(
                "lp_iterations: served {} != expected {}",
                self.lp_iterations, d.trace.lp_iterations
            ));
        }
        Ok(())
    }
}

/// A response frame: a decision, a structured error, or the answer to
/// an in-band [`ControlMsg`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A finished decision.
    Decision(DecisionMsg),
    /// A per-request or stream-level error.
    Error {
        /// The offending request's id, when known.
        id: Option<u64>,
        /// Human-readable cause.
        message: String,
    },
    /// The metrics document answering a `metrics` control frame.
    Metrics {
        /// Echoed control-frame id, when one was sent.
        id: Option<u64>,
        /// The scraped document.
        doc: MetricsDoc,
    },
    /// The verdict answering a `health` control frame.
    Health {
        /// Echoed control-frame id, when one was sent.
        id: Option<u64>,
        /// `true` when no degradation reason applies.
        ok: bool,
        /// Why the server considers itself degraded (empty when ok).
        reasons: Vec<String>,
    },
}

fn opt_id(id: Option<u64>) -> Value {
    id.map(|i| Value::Int(i as i64)).unwrap_or(Value::Null)
}

impl Response {
    /// Renders the response as a JSON payload.
    pub fn to_value(&self) -> Value {
        match self {
            Response::Decision(d) => d.to_value(),
            Response::Error { id, message } => Value::Obj(vec![
                ("type".into(), Value::Str("error".into())),
                ("id".into(), opt_id(*id)),
                ("message".into(), Value::Str(message.clone())),
            ]),
            Response::Metrics { id, doc } => Value::Obj(vec![
                ("type".into(), Value::Str("metrics".into())),
                ("id".into(), opt_id(*id)),
                ("doc".into(), doc.to_value()),
            ]),
            Response::Health { id, ok, reasons } => Value::Obj(vec![
                ("type".into(), Value::Str("health".into())),
                ("id".into(), opt_id(*id)),
                (
                    "status".into(),
                    Value::Str(if *ok { "ok" } else { "degraded" }.into()),
                ),
                (
                    "reasons".into(),
                    Value::Arr(reasons.iter().map(|r| Value::Str(r.clone())).collect()),
                ),
            ]),
        }
    }

    /// Parses a response payload.
    pub fn parse(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("not UTF-8: {e}"))?;
        let v = Value::parse(text).map_err(|e| format!("not JSON: {e}"))?;
        let id = v.get("id").and_then(Value::as_u64);
        match v.get("type").and_then(Value::as_str) {
            Some("decision") => DecisionMsg::from_value(&v).map(Response::Decision),
            Some("error") => Ok(Response::Error {
                id,
                message: v
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            Some("metrics") => Ok(Response::Metrics {
                id,
                doc: MetricsDoc::from_value(v.get("doc").ok_or("missing field 'doc'")?)?,
            }),
            Some("health") => {
                let status = v
                    .get("status")
                    .and_then(Value::as_str)
                    .ok_or("missing field 'status'")?;
                let reasons = v
                    .get("reasons")
                    .and_then(Value::as_arr)
                    .map(|arr| {
                        arr.iter()
                            .map(|r| r.as_str().unwrap_or("").to_string())
                            .collect()
                    })
                    .unwrap_or_default();
                Ok(Response::Health {
                    id,
                    ok: status == "ok",
                    reasons,
                })
            }
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn request() -> Request {
        Request {
            id: 7,
            policy: 1,
            offered: 6.5e8,
            premium_offered: 3.9e8,
            background_mw: vec![330.5, 410.25, 280.125],
            hourly_budget: 25_000.0,
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"world").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur, MAX_FRAME).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur, MAX_FRAME).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cur, MAX_FRAME).unwrap().unwrap(), b"world");
        assert!(read_frame(&mut cur, MAX_FRAME).unwrap().is_none());
    }

    #[test]
    fn truncated_header_and_payload_are_detected() {
        let mut full = Vec::new();
        write_frame(&mut full, b"payload").unwrap();
        // Cut inside the header.
        let mut cur = Cursor::new(full[..2].to_vec());
        assert!(matches!(
            read_frame(&mut cur, MAX_FRAME),
            Err(FrameError::Truncated { .. })
        ));
        // Cut inside the payload.
        let mut cur = Cursor::new(full[..full.len() - 3].to_vec());
        assert!(matches!(
            read_frame(&mut cur, MAX_FRAME),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cur, MAX_FRAME),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn request_round_trips_bitwise() {
        let req = request();
        let rendered = req.to_value().render();
        let back = Request::parse(rendered.as_bytes()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.offered.to_bits(), req.offered.to_bits());
        // Unlimited budget crosses as null.
        let unlimited = Request {
            hourly_budget: f64::INFINITY,
            ..req
        };
        let back = Request::parse(unlimited.to_value().render().as_bytes()).unwrap();
        assert_eq!(back.hourly_budget, f64::INFINITY);
    }

    #[test]
    fn invalid_requests_are_rejected_with_the_id() {
        let cases = [
            (r#"{"policy":1}"#, None),
            (
                r#"{"id":3,"policy":9,"offered":1.0,"premium":0.5,"background":[1.0]}"#,
                Some(3),
            ),
            (
                r#"{"id":4,"policy":1,"offered":1.0,"premium":2.0,"background":[1.0]}"#,
                Some(4),
            ),
            (
                r#"{"id":5,"policy":1,"offered":1e400,"premium":0.0,"background":[1.0]}"#,
                Some(5),
            ),
            (
                r#"{"id":6,"policy":1,"offered":1.0,"premium":0.5,"background":[]}"#,
                Some(6),
            ),
        ];
        for (payload, id) in cases {
            let err = Request::parse(payload.as_bytes()).unwrap_err();
            assert_eq!(err.id, id, "case {payload}");
        }
        assert!(Request::parse(&[0xff, 0xfe]).is_err());
        assert!(Request::parse(b"{not json").is_err());
    }

    #[test]
    fn decision_round_trips_via_response() {
        use billcap_core::{BillCapper, DataCenterSystem};
        let sys = DataCenterSystem::paper_system(1);
        let d = BillCapper::default()
            .decide_hour(&sys, 6e8, 3.6e8, &[330.0, 410.0, 280.0], f64::INFINITY)
            .unwrap();
        let msg = DecisionMsg::from_decision(9, &d, false);
        msg.bitwise_matches(&d).unwrap();
        let rendered = Response::Decision(msg.clone()).to_value().render();
        match Response::parse(rendered.as_bytes()).unwrap() {
            Response::Decision(back) => {
                assert_eq!(back, msg);
                back.bitwise_matches(&d).unwrap();
            }
            other => panic!("parsed {other:?}"),
        }
    }

    /// The direct renderer against its oracle, the `Value`-tree render.
    fn assert_direct_render_matches(id: u64, d: &HourDecision, cached: bool) {
        let expected = Response::Decision(DecisionMsg::from_decision(id, d, cached))
            .to_value()
            .render();
        let mut frame = Vec::new();
        render_decision_frame(&mut frame, id, cached, &render_decision_body(d)).unwrap();
        assert_eq!(
            std::str::from_utf8(&frame[4..]).unwrap(),
            expected,
            "id {id}, cached {cached}"
        );
        assert_eq!(
            read_frame(&mut Cursor::new(&frame), MAX_FRAME)
                .unwrap()
                .unwrap(),
            expected.as_bytes(),
            "the header must announce the payload length"
        );
    }

    #[test]
    fn direct_decision_render_is_byte_identical_to_the_value_render() {
        use billcap_core::{BillCapper, DataCenterSystem};
        use billcap_sim::Scenario;
        let plan = crate::replay::build_plan(1, 42, 168, Some(Scenario::STRINGENT_BUDGET)).unwrap();
        let mut decisions = plan.expected;
        assert!(decisions.iter().all(|d| d.budget.is_finite()));
        let sys = DataCenterSystem::paper_system(1);
        let unlimited = BillCapper::default()
            .decide_hour(&sys, 6e8, 3.6e8, &[330.0, 410.0, 280.0], f64::INFINITY)
            .unwrap();
        assert!(
            Response::Decision(DecisionMsg::from_decision(0, &unlimited, false))
                .to_value()
                .render()
                .contains("\"budget\":null")
        );
        decisions.push(unlimited);
        for (t, d) in decisions.iter().enumerate() {
            for cached in [false, true] {
                for id in [0, t as u64, i64::MAX as u64] {
                    assert_direct_render_matches(id, d, cached);
                }
            }
        }
    }

    #[test]
    fn error_responses_round_trip() {
        for id in [Some(11), None] {
            let r = Response::Error {
                id,
                message: "bad request".into(),
            };
            let back = Response::parse(r.to_value().render().as_bytes()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn control_frames_parse_and_round_trip() {
        for (ctl, op) in [
            (ControlMsg::Metrics { id: Some(3) }, "metrics"),
            (ControlMsg::Health { id: None }, "health"),
        ] {
            let rendered = ctl.to_value().render();
            assert!(rendered.contains(op));
            assert!(ControlMsg::maybe_control(rendered.as_bytes()));
            assert_eq!(ControlMsg::parse(rendered.as_bytes()).unwrap(), Some(ctl));
        }
        // Unknown ops are rejected; op-less payloads fall through.
        assert!(ControlMsg::parse(br#"{"op":"reboot"}"#).is_err());
        assert_eq!(ControlMsg::parse(br#"{"id":1}"#).unwrap(), None);
    }

    #[test]
    fn decide_requests_never_look_like_control_frames() {
        let rendered = request().to_value().render();
        assert!(!ControlMsg::maybe_control(rendered.as_bytes()));
        let unlimited = Request {
            hourly_budget: f64::INFINITY,
            ..request()
        };
        assert!(!ControlMsg::maybe_control(
            unlimited.to_value().render().as_bytes()
        ));
    }

    #[test]
    fn metrics_responses_round_trip() {
        let mut doc = billcap_obs::MetricsDoc::new(4, 1_000_000);
        doc.counters.insert("serve.requests".into(), 168);
        doc.gauges.insert("serve.queue_depth".into(), 2.0);
        let r = Response::Metrics { id: Some(9), doc };
        let back = Response::parse(r.to_value().render().as_bytes()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn health_responses_round_trip() {
        let ok = Response::Health {
            id: None,
            ok: true,
            reasons: Vec::new(),
        };
        let degraded = Response::Health {
            id: Some(2),
            ok: false,
            reasons: vec!["trace sink dropped 3 lines".into()],
        };
        for r in [ok, degraded] {
            let back = Response::parse(r.to_value().render().as_bytes()).unwrap();
            assert_eq!(back, r);
        }
    }
}
