//! Contention-freedom certificates: the machine-checkable evidence object
//! behind Theorem 1 verdicts.
//!
//! A [`Certificate`] packages everything an *independent* checker needs to
//! re-derive `C ∩ R = ∅` by set arithmetic alone: the maximum clique set
//! `K`, the explicit contention obligations (pairs of `C` whose routes
//! must be link-disjoint), the per-route resource sets (channel labels),
//! the per-channel crossing flow sets, and — when verification failed — a
//! concrete [`CertWitness`] per violated obligation. The whole payload is
//! self-bound by a [`CanonicalForm`] digest (the `binding` field), so any
//! tamper that does not recompute the digest is detected before any
//! semantic check runs, and optionally bound to a synthesis job by the
//! job-fingerprint digest of the serve cache.
//!
//! The schema is versioned (`nocsyn-cert-v1`), rendered deterministically
//! (same certificate value ⇒ same bytes), and parsed under the same
//! [`ParseLimits`] resource budget as pattern text — certificates cross
//! trust boundaries (disk caches, remote replies), so parsing is total
//! and bounded.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{self, JsonValue};
use crate::text::ParseLimits;
use crate::{CanonicalForm, Digest, Flow, FlowInterner, FlowPair};

/// Schema tag accepted by this version of the certificate format.
pub const CERT_SCHEMA: &str = "nocsyn-cert-v1";

/// One violated obligation: a contention pair whose routes share channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertWitness {
    /// The contention pair that collides.
    pub pair: FlowPair,
    /// The shared channel labels, strictly ascending.
    pub shared: Vec<String>,
}

/// A deterministic, self-bound contention-freedom certificate.
///
/// Field order in memory is irrelevant: rendering and the binding digest
/// both normalize (sort) every collection, so two equal certificate
/// values always produce identical bytes and identical digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Process count of the pattern the certificate speaks about.
    pub n_procs: usize,
    /// The verdict the certificate claims to prove.
    pub contention_free: bool,
    /// The maximum clique set `K` (each clique a set of flows).
    pub cliques: Vec<Vec<Flow>>,
    /// The `C ∩ R = ∅` obligations: contention pairs with both ends routed.
    pub obligations: Vec<FlowPair>,
    /// Per-route resource sets: the channel labels each flow crosses,
    /// strictly ascending ([`Certificate::parse`] rejects any other order).
    pub routes: BTreeMap<Flow, Vec<String>>,
    /// Per-channel crossing flow sets (the inverse of `routes`).
    pub crossings: BTreeMap<String, Vec<Flow>>,
    /// Concrete collisions, non-empty iff `contention_free` is false.
    pub witnesses: Vec<CertWitness>,
    /// Hex digest of the synthesis job this certificate is bound to, if
    /// it was emitted for a cacheable job.
    pub job: Option<String>,
    /// The binding digest claimed by the parsed text (`None` on freshly
    /// built certificates; rendering always recomputes).
    pub claimed_binding: Option<String>,
}

impl Certificate {
    /// The payload digest binding every semantic field together.
    ///
    /// Computed over a [`CanonicalForm`] whose fields are normalized
    /// renderings of each collection, so it is independent of in-memory
    /// ordering and of JSON whitespace. A flow renders as its key
    /// `src>dst` and a pair as `first|second`. Cliques (members and
    /// cliques alike), obligations and witnesses (`pair:shared`) are
    /// sorted by the bytes of that rendering; routes and crossings keep
    /// map order. The sorts run over integer ranks of the few distinct
    /// flows, and every field is written into one buffer.
    pub fn binding(&self) -> Digest {
        let mut flows = FlowKeys::new(self.routes.keys().copied().collect());
        let cliques: Vec<Vec<u32>> = self
            .cliques
            .iter()
            .map(|c| c.iter().map(|&f| flows.id(f)).collect())
            .collect();
        let obligations: Vec<[u32; 2]> = self.obligations.iter().map(|&p| flows.pair(p)).collect();
        let mut witnesses: Vec<([u32; 2], &[String])> = self
            .witnesses
            .iter()
            .map(|w| (flows.pair(w.pair), w.shared.as_slice()))
            .collect();
        let crossing_ids: Vec<u32> = self
            .crossings
            .values()
            .flatten()
            .map(|&f| flows.id(f))
            .collect();
        let keys = flows.into_keys();
        let first = KeyOrder::new(&keys, b'|');
        let plain = KeyOrder::new(&keys, b',');
        let witness_second = KeyOrder::new(&keys, b':');
        let key = |id: u32| keys[id as usize].as_str();

        let mut buf = String::with_capacity(16 * (obligations.len() + crossing_ids.len()) + 64);
        let mut ends = [0usize; 5];

        // A clique string joins its members in key order (`key,` order
        // equals plain key order: every key byte sorts above `,`), and
        // comparing two clique strings compares their member sequences
        // token by token, because no `key,` token is a prefix of another.
        let mut cliques: Vec<Vec<u32>> = cliques
            .into_iter()
            .map(|c| {
                let mut ranks: Vec<u32> = c.iter().map(|&id| plain.rank(id)).collect();
                ranks.sort_unstable();
                ranks
            })
            .collect();
        cliques.sort_unstable();
        for (i, c) in cliques.iter().enumerate() {
            if i > 0 {
                buf.push(';');
            }
            for (j, &r) in c.iter().enumerate() {
                if j > 0 {
                    buf.push(',');
                }
                buf.push_str(key(plain.id(r)));
            }
        }
        ends[0] = buf.len();

        // `a|b` strings: `a|` tokens are prefix-free, so they order by the
        // rank of `key + "|"` — not of `key`, since `1>23|` < `1>2|` — and
        // ties order by the plain key of `b`.
        let mut ranked: Vec<u64> = obligations
            .iter()
            .map(|&[a, b]| (u64::from(first.rank(a)) << 32) | u64::from(plain.rank(b)))
            .collect();
        ranked.sort_unstable();
        for (i, &r) in ranked.iter().enumerate() {
            if i > 0 {
                buf.push(';');
            }
            buf.push_str(key(first.id((r >> 32) as u32)));
            buf.push('|');
            buf.push_str(key(plain.id(r as u32)));
        }
        ends[1] = buf.len();

        // Route flows are interned first, so the i-th route's flow is id i.
        for (i, chans) in self.routes.values().enumerate() {
            if i > 0 {
                buf.push(';');
            }
            buf.push_str(key(i as u32));
            buf.push(':');
            push_joined(&mut buf, chans);
        }
        ends[2] = buf.len();

        let mut ids = crossing_ids.iter();
        for (i, (ch, list)) in self.crossings.iter().enumerate() {
            if i > 0 {
                buf.push(';');
            }
            buf.push_str(ch);
            buf.push(':');
            for (j, id) in ids.by_ref().take(list.len()).enumerate() {
                if j > 0 {
                    buf.push(',');
                }
                buf.push_str(key(*id));
            }
        }
        ends[3] = buf.len();

        // `a|b:shared`: after the `a|` token, `b:` tokens order by the
        // rank of `key + ":"`, and equal pairs by the joined labels.
        witnesses.sort_by(|(p, x), (q, y)| {
            (first.rank(p[0]), witness_second.rank(p[1]))
                .cmp(&(first.rank(q[0]), witness_second.rank(q[1])))
                .then_with(|| joined_bytes(x).cmp(joined_bytes(y)))
        });
        for (i, ([a, b], shared)) in witnesses.iter().enumerate() {
            if i > 0 {
                buf.push(';');
            }
            buf.push_str(key(*a));
            buf.push('|');
            buf.push_str(key(*b));
            buf.push(':');
            push_joined(&mut buf, shared);
        }
        ends[4] = buf.len();

        CanonicalForm::new()
            .field("schema", CERT_SCHEMA)
            .field("n_procs", self.n_procs)
            .field("contention_free", self.contention_free)
            .field("cliques", &buf[..ends[0]])
            .field("obligations", &buf[ends[0]..ends[1]])
            .field("routes", &buf[ends[1]..ends[2]])
            .field("crossings", &buf[ends[2]..ends[3]])
            .field("witnesses", &buf[ends[3]..ends[4]])
            .field("job", self.job.as_deref().unwrap_or("none"))
            .digest()
    }

    /// Renders the certificate as a deterministic single-line JSON object
    /// with a freshly computed `binding` digest.
    ///
    /// Cliques (each sorted), obligations and witnesses are written in
    /// flow order; routes and crossings in map order. The text is streamed
    /// into one pre-sized `String`; strings go through
    /// [`json::write_escaped`], the escaper [`JsonValue`] renders with.
    pub fn to_json(&self) -> String {
        let labels: usize = self.routes.values().flatten().map(|l| l.len() + 3).sum();
        let flows = self.cliques.iter().map(Vec::len).sum::<usize>()
            + 2 * (self.obligations.len() + self.witnesses.len())
            + self.routes.len()
            + self.crossings.values().map(Vec::len).sum::<usize>();
        let mut out = String::with_capacity(256 + 10 * flows + 2 * labels);

        out.push_str("{\"schema\":");
        push_escaped(&mut out, CERT_SCHEMA);
        out.push_str(",\"n_procs\":");
        push_uint(&mut out, self.n_procs);
        out.push_str(",\"contention_free\":");
        out.push_str(if self.contention_free {
            "true"
        } else {
            "false"
        });

        out.push_str(",\"cliques\":[");
        let mut cliques: Vec<Vec<Flow>> = self
            .cliques
            .iter()
            .map(|c| {
                let mut c = c.clone();
                c.sort_unstable();
                c
            })
            .collect();
        cliques.sort_unstable();
        for (i, c) in cliques.iter().enumerate() {
            push_sep(&mut out, i);
            out.push('[');
            for (j, &f) in c.iter().enumerate() {
                push_sep(&mut out, j);
                push_flow(&mut out, f);
            }
            out.push(']');
        }

        out.push_str("],\"obligations\":[");
        let mut obligations = self.obligations.clone();
        obligations.sort_unstable();
        for (i, p) in obligations.iter().enumerate() {
            push_sep(&mut out, i);
            out.push('[');
            push_flow(&mut out, p.first());
            out.push(',');
            push_flow(&mut out, p.second());
            out.push(']');
        }

        out.push_str("],\"routes\":[");
        for (i, (&f, chans)) in self.routes.iter().enumerate() {
            push_sep(&mut out, i);
            out.push_str("{\"flow\":");
            push_flow(&mut out, f);
            out.push_str(",\"channels\":");
            push_labels(&mut out, chans);
            out.push('}');
        }

        out.push_str("],\"crossings\":[");
        for (i, (ch, list)) in self.crossings.iter().enumerate() {
            push_sep(&mut out, i);
            out.push_str("{\"channel\":");
            push_escaped(&mut out, ch);
            out.push_str(",\"flows\":[");
            for (j, &f) in list.iter().enumerate() {
                push_sep(&mut out, j);
                push_flow(&mut out, f);
            }
            out.push_str("]}");
        }

        out.push_str("],\"witnesses\":[");
        // Stable: witnesses declaring the same pair keep their order.
        let mut witnesses: Vec<&CertWitness> = self.witnesses.iter().collect();
        witnesses.sort_by_key(|w| w.pair);
        for (i, w) in witnesses.iter().enumerate() {
            push_sep(&mut out, i);
            out.push_str("{\"flow_a\":");
            push_flow(&mut out, w.pair.first());
            out.push_str(",\"flow_b\":");
            push_flow(&mut out, w.pair.second());
            out.push_str(",\"shared\":");
            push_labels(&mut out, &w.shared);
            out.push('}');
        }
        out.push(']');

        if let Some(job) = &self.job {
            out.push_str(",\"job\":");
            push_escaped(&mut out, job);
        }
        out.push_str(",\"binding\":");
        push_escaped(&mut out, &self.binding().to_hex());
        out.push('}');
        out
    }

    /// Whether the binding digest claimed by the parsed text matches a
    /// recomputation over the parsed payload. Freshly built certificates
    /// (no claimed binding) verify trivially.
    pub fn verify_binding(&self) -> bool {
        match &self.claimed_binding {
            None => true,
            Some(claimed) => *claimed == self.binding().to_hex(),
        }
    }

    /// Parses certificate text under the given resource limits.
    ///
    /// Total and bounded: any input — hostile, truncated, or garbage —
    /// yields a typed [`CertError`] with a stable fingerprint, never a
    /// panic. Semantic validation (binding, obligations, disjointness)
    /// is the checker's job; this only enforces shape and budgets.
    ///
    /// # Errors
    ///
    /// [`CertError`] on oversized input, malformed JSON, an unsupported
    /// schema tag, or a missing/ill-typed field.
    pub fn parse(text: &str, limits: &ParseLimits) -> Result<Certificate, CertError> {
        if text.len() > limits.max_input_bytes {
            return Err(CertError::LimitExceeded("input bytes"));
        }
        let value = json::parse(text).map_err(|e| CertError::Json {
            fingerprint: e.fingerprint(),
            detail: e.to_string(),
        })?;
        if value.as_object().is_none() {
            return Err(CertError::BadField("certificate"));
        }
        let schema = str_field(&value, "schema")?;
        if schema != CERT_SCHEMA {
            return Err(CertError::SchemaUnsupported);
        }
        let n_procs = usize_field(&value, "n_procs")?;
        if n_procs == 0 || n_procs > limits.max_procs {
            return Err(CertError::LimitExceeded("n_procs"));
        }
        let contention_free = value
            .get("contention_free")
            .ok_or(CertError::MissingField("contention_free"))?
            .as_bool()
            .ok_or(CertError::BadField("contention_free"))?;
        // Every flow or channel mention costs input bytes, so the input
        // budget already bounds memory; the message budget additionally
        // bounds element counts the way pattern parsing does.
        let mut mentions = Budget {
            left: limits.max_messages,
        };

        let mut cliques = Vec::new();
        for c in array_field(&value, "cliques")? {
            let members = c.as_array().ok_or(CertError::BadField("cliques"))?;
            let mut clique = Vec::new();
            for m in members {
                clique.push(parse_flow(m, n_procs, &mut mentions)?);
            }
            cliques.push(clique);
        }

        let mut obligations = Vec::new();
        for o in array_field(&value, "obligations")? {
            let ends = o.as_array().ok_or(CertError::BadField("obligations"))?;
            if ends.len() != 2 {
                return Err(CertError::BadField("obligations"));
            }
            let a = parse_flow(&ends[0], n_procs, &mut mentions)?;
            let b = parse_flow(&ends[1], n_procs, &mut mentions)?;
            obligations.push(FlowPair::new(a, b));
        }

        let mut routes = BTreeMap::new();
        for r in array_field(&value, "routes")? {
            let flow = parse_flow(
                r.get("flow").ok_or(CertError::MissingField("flow"))?,
                n_procs,
                &mut mentions,
            )?;
            let chans = parse_channels(r.get("channels"), "channels", &mut mentions)?;
            if routes.insert(flow, chans).is_some() {
                return Err(CertError::BadField("routes"));
            }
        }

        let mut crossings = BTreeMap::new();
        for x in array_field(&value, "crossings")? {
            let ch = x
                .get("channel")
                .and_then(|v| v.as_str())
                .ok_or(CertError::BadField("crossings"))?;
            check_channel(ch)?;
            let mut flows = Vec::new();
            for f in x
                .get("flows")
                .and_then(|v| v.as_array())
                .ok_or(CertError::BadField("crossings"))?
            {
                flows.push(parse_flow(f, n_procs, &mut mentions)?);
            }
            if crossings.insert(ch.to_string(), flows).is_some() {
                return Err(CertError::BadField("crossings"));
            }
        }

        let mut witnesses = Vec::new();
        for w in array_field(&value, "witnesses")? {
            let a = parse_flow(
                w.get("flow_a").ok_or(CertError::MissingField("flow_a"))?,
                n_procs,
                &mut mentions,
            )?;
            let b = parse_flow(
                w.get("flow_b").ok_or(CertError::MissingField("flow_b"))?,
                n_procs,
                &mut mentions,
            )?;
            let shared = parse_channels(w.get("shared"), "shared", &mut mentions)?;
            witnesses.push(CertWitness {
                pair: FlowPair::new(a, b),
                shared,
            });
        }

        let job = match value.get("job") {
            None => None,
            Some(v) => {
                let hex = v.as_str().ok_or(CertError::BadField("job"))?;
                if Digest::from_hex(hex).is_none() {
                    return Err(CertError::BadField("job"));
                }
                Some(hex.to_string())
            }
        };
        let binding = str_field(&value, "binding")?;
        if Digest::from_hex(binding).is_none() {
            return Err(CertError::BadField("binding"));
        }

        Ok(Certificate {
            n_procs,
            contention_free,
            cliques,
            obligations,
            routes,
            crossings,
            witnesses,
            job,
            claimed_binding: Some(binding.to_string()),
        })
    }
}

/// The distinct flows one certificate mentions, interned for
/// [`Certificate::binding`]: routed flows take their route's position as
/// id, any other flow the next free id.
struct FlowKeys {
    routed: FlowInterner,
    others: BTreeMap<Flow, u32>,
}

impl FlowKeys {
    fn new(routed: Vec<Flow>) -> Self {
        FlowKeys {
            routed: FlowInterner::from_sorted_flows(routed),
            others: BTreeMap::new(),
        }
    }

    fn id(&mut self, flow: Flow) -> u32 {
        match self.routed.id(flow) {
            Some(id) => id as u32,
            None => {
                let next = (self.routed.len() + self.others.len()) as u32;
                *self.others.entry(flow).or_insert(next)
            }
        }
    }

    fn pair(&mut self, pair: FlowPair) -> [u32; 2] {
        [self.id(pair.first()), self.id(pair.second())]
    }

    /// The key `src>dst` of every interned flow, indexed by id.
    fn into_keys(self) -> Vec<String> {
        let mut keys: Vec<String> = self.routed.flows().iter().map(|&f| flow_key(f)).collect();
        keys.resize(self.routed.len() + self.others.len(), String::new());
        for (f, id) in self.others {
            keys[id as usize] = flow_key(f);
        }
        keys
    }
}

fn flow_key(f: Flow) -> String {
    format!("{}>{}", f.src.index(), f.dst.index())
}

/// Flow ids sorted by the bytes of `key + suffix`, and each id's rank in
/// that order. Keys are distinct, so ranks are too.
struct KeyOrder {
    ids: Vec<u32>,
    ranks: Vec<u32>,
}

impl KeyOrder {
    fn new(keys: &[String], suffix: u8) -> Self {
        let mut ids: Vec<u32> = (0..keys.len() as u32).collect();
        ids.sort_unstable_by(|&a, &b| {
            let (a, b) = (&keys[a as usize], &keys[b as usize]);
            a.bytes().chain([suffix]).cmp(b.bytes().chain([suffix]))
        });
        let mut ranks = vec![0; ids.len()];
        for (rank, &id) in ids.iter().enumerate() {
            ranks[id as usize] = rank as u32;
        }
        KeyOrder { ids, ranks }
    }

    fn rank(&self, id: u32) -> u32 {
        self.ranks[id as usize]
    }

    fn id(&self, rank: u32) -> u32 {
        self.ids[rank as usize]
    }
}

/// The bytes of `labels.join(",")`, without building the string.
fn joined_bytes(labels: &[String]) -> impl Iterator<Item = u8> + '_ {
    labels.iter().enumerate().flat_map(|(i, l)| {
        let sep: &[u8] = if i > 0 { b"," } else { b"" };
        sep.iter().copied().chain(l.bytes())
    })
}

fn push_joined(buf: &mut String, labels: &[String]) {
    for (i, l) in labels.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(l);
    }
}

fn push_sep(out: &mut String, i: usize) {
    if i > 0 {
        out.push(',');
    }
}

fn push_uint(out: &mut String, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// A flow as the JSON array `[src,dst]`.
fn push_flow(out: &mut String, f: Flow) {
    out.push('[');
    push_uint(out, f.src.index());
    out.push(',');
    push_uint(out, f.dst.index());
    out.push(']');
}

fn push_escaped(out: &mut String, s: &str) {
    // Writing into a `String` cannot fail.
    let _ = json::write_escaped(out, s);
}

fn push_labels(out: &mut String, labels: &[String]) {
    out.push('[');
    for (i, l) in labels.iter().enumerate() {
        push_sep(out, i);
        push_escaped(out, l);
    }
    out.push(']');
}

/// Remaining element-mention budget during parsing.
struct Budget {
    left: usize,
}

impl Budget {
    fn spend(&mut self) -> Result<(), CertError> {
        if self.left == 0 {
            return Err(CertError::LimitExceeded("elements"));
        }
        self.left -= 1;
        Ok(())
    }
}

fn str_field<'a>(value: &'a JsonValue, name: &'static str) -> Result<&'a str, CertError> {
    value
        .get(name)
        .ok_or(CertError::MissingField(name))?
        .as_str()
        .ok_or(CertError::BadField(name))
}

fn usize_field(value: &JsonValue, name: &'static str) -> Result<usize, CertError> {
    let raw = value
        .get(name)
        .ok_or(CertError::MissingField(name))?
        .as_u64()
        .ok_or(CertError::BadField(name))?;
    usize::try_from(raw).map_err(|_| CertError::BadField(name))
}

fn array_field<'a>(value: &'a JsonValue, name: &'static str) -> Result<&'a [JsonValue], CertError> {
    value
        .get(name)
        .ok_or(CertError::MissingField(name))?
        .as_array()
        .ok_or(CertError::BadField(name))
}

fn parse_flow(v: &JsonValue, n_procs: usize, budget: &mut Budget) -> Result<Flow, CertError> {
    budget.spend()?;
    let ends = v.as_array().ok_or(CertError::BadField("flow"))?;
    if ends.len() != 2 {
        return Err(CertError::BadField("flow"));
    }
    let src = ends[0]
        .as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or(CertError::BadField("flow"))?;
    let dst = ends[1]
        .as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or(CertError::BadField("flow"))?;
    if src >= n_procs || dst >= n_procs {
        return Err(CertError::BadField("flow"));
    }
    Ok(Flow::from_indices(src, dst))
}

fn check_channel(label: &str) -> Result<(), CertError> {
    if label.is_empty() || label.len() > 64 || label.contains([',', ';', ':']) {
        return Err(CertError::BadField("channel"));
    }
    Ok(())
}

fn parse_channels(
    v: Option<&JsonValue>,
    name: &'static str,
    budget: &mut Budget,
) -> Result<Vec<String>, CertError> {
    let items = v
        .and_then(|v| v.as_array())
        .ok_or(CertError::BadField(name))?;
    let mut chans: Vec<String> = Vec::with_capacity(items.len());
    for item in items {
        budget.spend()?;
        let label = item.as_str().ok_or(CertError::BadField(name))?;
        check_channel(label)?;
        // A resource set is listed strictly ascending: honest emitters
        // sort and dedup, and the checker's disjointness merge relies on
        // it (an unsorted list could hide a shared channel from it).
        if chans.last().is_some_and(|prev| prev.as_str() >= label) {
            return Err(CertError::BadField(name));
        }
        chans.push(label.to_string());
    }
    Ok(chans)
}

/// Why certificate text was rejected at the parsing boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// The text is not well-formed JSON; carries the JSON parser's own
    /// stable fingerprint.
    Json {
        /// The JSON parser's stable error class.
        fingerprint: &'static str,
        /// Human-readable position/cause.
        detail: String,
    },
    /// A required field is absent.
    MissingField(&'static str),
    /// A field is present but ill-typed or out of range.
    BadField(&'static str),
    /// The schema tag is not `nocsyn-cert-v1`.
    SchemaUnsupported,
    /// A resource budget from [`ParseLimits`] was exceeded.
    LimitExceeded(&'static str),
}

impl CertError {
    /// Stable kebab-case class id (shared namespace with every other
    /// public error type; fuzzing dedups crashes by this).
    pub fn fingerprint(&self) -> &'static str {
        match self {
            CertError::Json { fingerprint, .. } => fingerprint,
            CertError::MissingField(_) => "cert-missing-field",
            CertError::BadField(_) => "cert-bad-field",
            CertError::SchemaUnsupported => "cert-schema-unsupported",
            CertError::LimitExceeded(_) => "limit-exceeded",
        }
    }
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::Json { detail, .. } => write!(f, "certificate is not JSON: {detail}"),
            CertError::MissingField(name) => write!(f, "certificate field `{name}` is missing"),
            CertError::BadField(name) => write!(f, "certificate field `{name}` is invalid"),
            CertError::SchemaUnsupported => {
                write!(f, "certificate schema is not `{CERT_SCHEMA}`")
            }
            CertError::LimitExceeded(what) => {
                write!(f, "certificate exceeds the `{what}` budget")
            }
        }
    }
}

impl std::error::Error for CertError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Certificate {
        let f01 = Flow::from_indices(0, 1);
        let f23 = Flow::from_indices(2, 3);
        let mut routes = BTreeMap::new();
        routes.insert(f01, vec!["L0+".to_string()]);
        routes.insert(f23, vec!["L1-".to_string()]);
        let mut crossings = BTreeMap::new();
        crossings.insert("L0+".to_string(), vec![f01]);
        crossings.insert("L1-".to_string(), vec![f23]);
        Certificate {
            n_procs: 4,
            contention_free: true,
            cliques: vec![vec![f01, f23]],
            obligations: vec![FlowPair::new(f01, f23)],
            routes,
            crossings,
            witnesses: Vec::new(),
            job: None,
            claimed_binding: None,
        }
    }

    #[test]
    fn round_trip_preserves_value_and_binding() {
        let cert = sample();
        let text = cert.to_json();
        let parsed = Certificate::parse(&text, &ParseLimits::default()).expect("round trip");
        assert!(parsed.verify_binding());
        assert_eq!(parsed.binding(), cert.binding());
        assert_eq!(parsed.to_json(), text, "render is a fixed point");
    }

    #[test]
    fn rendering_is_order_invariant() {
        let mut shuffled = sample();
        shuffled.cliques[0].reverse();
        shuffled.obligations.reverse();
        assert_eq!(shuffled.to_json(), sample().to_json());
        assert_eq!(shuffled.binding(), sample().binding());
    }

    #[test]
    fn any_payload_tamper_changes_the_binding() {
        let base = sample().binding();
        let mut a = sample();
        a.contention_free = false;
        let mut b = sample();
        b.obligations.clear();
        let mut c = sample();
        c.routes
            .insert(Flow::from_indices(1, 2), vec!["L9+".to_string()]);
        let mut d = sample();
        d.job = Some(crate::sha256(b"job").to_hex());
        for (i, cert) in [a, b, c, d].iter().enumerate() {
            assert_ne!(cert.binding(), base, "tamper {i} not caught");
        }
    }

    #[test]
    fn textual_tamper_fails_binding_verification() {
        let text = sample().to_json();
        let tampered = text.replace("\"contention_free\":true", "\"contention_free\":false");
        assert_ne!(text, tampered);
        let parsed = Certificate::parse(&tampered, &ParseLimits::default()).expect("parses");
        assert!(!parsed.verify_binding());
    }

    #[test]
    fn parse_rejections_have_stable_fingerprints() {
        let limits = ParseLimits::default();
        let cases: Vec<(String, &str)> = vec![
            ("{".to_string(), "json-unexpected-end"),
            ("[]".to_string(), "cert-bad-field"),
            ("{}".to_string(), "cert-missing-field"),
            (
                "{\"schema\":\"nocsyn-cert-v0\"}".to_string(),
                "cert-schema-unsupported",
            ),
            (
                sample().to_json().replace("nocsyn-cert-v1", "other-v9"),
                "cert-schema-unsupported",
            ),
            (
                sample().to_json().replace("[2,3]", "[2,99]"),
                "cert-bad-field",
            ),
            (
                sample().to_json().replace("\"n_procs\":4", "\"n_procs\":0"),
                "limit-exceeded",
            ),
        ];
        for (text, want) in cases {
            let err = Certificate::parse(&text, &limits).expect_err("must reject");
            assert_eq!(err.fingerprint(), want, "input {text:?} -> {err}");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn input_and_element_budgets_are_enforced() {
        let limits = ParseLimits::default().with_max_input_bytes(16);
        let err = Certificate::parse(&sample().to_json(), &limits).expect_err("too big");
        assert_eq!(err.fingerprint(), "limit-exceeded");
        let limits = ParseLimits::default().with_max_messages(1);
        let err = Certificate::parse(&sample().to_json(), &limits).expect_err("too many");
        assert_eq!(err.fingerprint(), "limit-exceeded");
    }

    #[test]
    fn parse_never_accepts_bad_digest_fields() {
        let text = sample().to_json();
        let hex = sample().binding().to_hex();
        let bad = text.replace(&hex, "zz");
        let err = Certificate::parse(&bad, &ParseLimits::default()).expect_err("bad binding");
        assert_eq!(err.fingerprint(), "cert-bad-field");
    }

    // -----------------------------------------------------------------
    // Oracles: the original DOM renderer and string-sort binding, kept
    // verbatim so the streamed writer and the ranked binding can be
    // checked against them byte for byte.
    // -----------------------------------------------------------------

    fn oracle_pair_key(p: FlowPair) -> String {
        format!("{}|{}", flow_key(p.first()), flow_key(p.second()))
    }

    fn oracle_binding(cert: &Certificate) -> Digest {
        let mut cliques: Vec<String> = cert
            .cliques
            .iter()
            .map(|c| {
                let mut flows: Vec<String> = c.iter().map(|f| flow_key(*f)).collect();
                flows.sort();
                flows.join(",")
            })
            .collect();
        cliques.sort();
        let mut obligations: Vec<String> = cert
            .obligations
            .iter()
            .map(|p| oracle_pair_key(*p))
            .collect();
        obligations.sort();
        let routes: Vec<String> = cert
            .routes
            .iter()
            .map(|(f, chans)| format!("{}:{}", flow_key(*f), chans.join(",")))
            .collect();
        let crossings: Vec<String> = cert
            .crossings
            .iter()
            .map(|(ch, flows)| {
                let keys: Vec<String> = flows.iter().map(|f| flow_key(*f)).collect();
                format!("{}:{}", ch, keys.join(","))
            })
            .collect();
        let mut witnesses: Vec<String> = cert
            .witnesses
            .iter()
            .map(|w| format!("{}:{}", oracle_pair_key(w.pair), w.shared.join(",")))
            .collect();
        witnesses.sort();
        CanonicalForm::new()
            .field("schema", CERT_SCHEMA)
            .field("n_procs", cert.n_procs)
            .field("contention_free", cert.contention_free)
            .field("cliques", cliques.join(";"))
            .field("obligations", obligations.join(";"))
            .field("routes", routes.join(";"))
            .field("crossings", crossings.join(";"))
            .field("witnesses", witnesses.join(";"))
            .field("job", cert.job.as_deref().unwrap_or("none"))
            .digest()
    }

    fn oracle_to_json(cert: &Certificate) -> String {
        let flow_json = |f: &Flow| {
            JsonValue::array([
                JsonValue::from(f.src.index()),
                JsonValue::from(f.dst.index()),
            ])
        };
        let mut cliques: Vec<Vec<Flow>> = cert
            .cliques
            .iter()
            .map(|c| {
                let mut c = c.clone();
                c.sort();
                c
            })
            .collect();
        cliques.sort();
        let mut obligations = cert.obligations.clone();
        obligations.sort();
        let mut witnesses = cert.witnesses.clone();
        witnesses.sort_by_key(|w| w.pair);
        let mut fields = vec![
            ("schema", JsonValue::from(CERT_SCHEMA)),
            ("n_procs", JsonValue::from(cert.n_procs)),
            ("contention_free", JsonValue::from(cert.contention_free)),
            (
                "cliques",
                JsonValue::array(
                    cliques
                        .iter()
                        .map(|c| JsonValue::array(c.iter().map(flow_json))),
                ),
            ),
            (
                "obligations",
                JsonValue::array(
                    obligations
                        .iter()
                        .map(|p| JsonValue::array([flow_json(&p.first()), flow_json(&p.second())])),
                ),
            ),
            (
                "routes",
                JsonValue::array(cert.routes.iter().map(|(f, chans)| {
                    JsonValue::object([
                        ("flow", flow_json(f)),
                        (
                            "channels",
                            JsonValue::array(chans.iter().map(|c| JsonValue::from(c.as_str()))),
                        ),
                    ])
                })),
            ),
            (
                "crossings",
                JsonValue::array(cert.crossings.iter().map(|(ch, flows)| {
                    JsonValue::object([
                        ("channel", JsonValue::from(ch.as_str())),
                        ("flows", JsonValue::array(flows.iter().map(flow_json))),
                    ])
                })),
            ),
            (
                "witnesses",
                JsonValue::array(witnesses.iter().map(|w| {
                    JsonValue::object([
                        ("flow_a", flow_json(&w.pair.first())),
                        ("flow_b", flow_json(&w.pair.second())),
                        (
                            "shared",
                            JsonValue::array(w.shared.iter().map(|c| JsonValue::from(c.as_str()))),
                        ),
                    ])
                })),
            ),
        ];
        if let Some(job) = &cert.job {
            fields.push(("job", JsonValue::from(job.as_str())));
        }
        fields.push(("binding", JsonValue::from(oracle_binding(cert).to_hex())));
        JsonValue::object(fields).to_string()
    }

    /// A random certificate value (not necessarily a valid proof): flow
    /// indices drawn from a pool rich in decimal prefixes of one another,
    /// labels that need JSON escapes, duplicates, empty collections, and
    /// witnesses and `job` present or absent.
    fn random_cert(rng: &mut nocsyn_rng::Rng) -> Certificate {
        const POOL: [usize; 14] = [0, 1, 2, 3, 10, 12, 20, 21, 23, 100, 120, 123, 201, 1234];
        const LABELS: [&str; 9] = [
            "L0+",
            "L1-",
            "L10+",
            "L1+",
            "S",
            "S+",
            "a\"b",
            "tab\there",
            "\u{1}\u{e9}",
        ];
        let flow = |rng: &mut nocsyn_rng::Rng| {
            let src = *rng.choose(&POOL).expect("pool is non-empty");
            let dst = *rng.choose(&POOL).expect("pool is non-empty");
            Flow::from_indices(src, dst)
        };
        let flows = |rng: &mut nocsyn_rng::Rng, max: usize| -> Vec<Flow> {
            let n = rng.gen_range(0..=max);
            (0..n).map(|_| flow(rng)).collect()
        };
        let labels = |rng: &mut nocsyn_rng::Rng| -> Vec<String> {
            let n = rng.gen_range(0..=3usize);
            (0..n)
                .map(|_| rng.choose(&LABELS).expect("labels").to_string())
                .collect()
        };
        let pair = |rng: &mut nocsyn_rng::Rng| FlowPair::new(flow(rng), flow(rng));
        let mut routes = BTreeMap::new();
        for f in flows(rng, 8) {
            routes.insert(f, labels(rng));
        }
        let mut crossings = BTreeMap::new();
        for _ in 0..rng.gen_range(0..=4usize) {
            let ch = rng.choose(&LABELS).expect("labels").to_string();
            crossings.insert(ch, flows(rng, 4));
        }
        let n_witnesses = if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(1..=5usize)
        };
        let mut witnesses: Vec<CertWitness> = (0..n_witnesses)
            .map(|_| CertWitness {
                pair: pair(rng),
                shared: labels(rng),
            })
            .collect();
        if let Some(w) = witnesses.first().cloned() {
            // A duplicate pair with other labels exercises the tie-break.
            witnesses.push(CertWitness {
                pair: w.pair,
                shared: labels(rng),
            });
        }
        let n_cliques = rng.gen_range(0..=4usize);
        let n_obligations = rng.gen_range(0..=12usize);
        Certificate {
            n_procs: 1235,
            contention_free: rng.gen_bool(0.5),
            cliques: (0..n_cliques).map(|_| flows(rng, 5)).collect(),
            obligations: (0..n_obligations).map(|_| pair(rng)).collect(),
            routes,
            crossings,
            witnesses,
            job: rng.gen_bool(0.5).then(|| crate::sha256(b"job").to_hex()),
            claimed_binding: None,
        }
    }

    #[test]
    fn streamed_rendering_and_ranked_binding_match_the_oracles() {
        let mut rng = nocsyn_rng::Rng::seed_from_u64(0xCE57);
        let mut empty = sample();
        empty.cliques.clear();
        empty.obligations.clear();
        empty.routes.clear();
        empty.crossings.clear();
        let fixed = [sample(), empty];
        for (i, cert) in fixed
            .into_iter()
            .chain((0..2000).map(|_| random_cert(&mut rng)))
            .enumerate()
        {
            assert_eq!(cert.binding(), oracle_binding(&cert), "case {i}: {cert:?}");
            assert_eq!(cert.to_json(), oracle_to_json(&cert), "case {i}: {cert:?}");
        }
    }

    #[test]
    fn prefix_colliding_keys_sort_by_their_rendering() {
        // `1>2|…` must sort after `1>23|…` and `12>3|…` in the canonical
        // form, though (1,2) is the numerically smallest flow.
        let f = Flow::from_indices;
        let mut cert = sample();
        cert.n_procs = 24;
        cert.obligations = vec![
            FlowPair::new(f(1, 2), f(2, 1)),
            FlowPair::new(f(1, 23), f(2, 1)),
            FlowPair::new(f(12, 3), f(2, 1)),
            FlowPair::new(f(1, 2), f(2, 12)),
        ];
        cert.cliques = vec![vec![f(1, 2), f(1, 23)], vec![f(1, 23), f(12, 3)]];
        assert_eq!(cert.binding(), oracle_binding(&cert));
        assert_eq!(cert.to_json(), oracle_to_json(&cert));
    }

    #[test]
    fn unsorted_or_duplicate_resource_lists_are_rejected() {
        let limits = ParseLimits::default();
        let text = sample().to_json();
        for (from, to) in [
            ("\"channels\":[\"L0+\"]", "\"channels\":[\"L0+\",\"A\"]"),
            ("\"channels\":[\"L0+\"]", "\"channels\":[\"L0+\",\"L0+\"]"),
        ] {
            let bad = text.replacen(from, to, 1);
            assert_ne!(bad, text);
            let err = Certificate::parse(&bad, &limits).expect_err("must reject");
            assert_eq!(err, CertError::BadField("channels"));
        }
        let ok = text.replacen("\"channels\":[\"L0+\"]", "\"channels\":[\"A\",\"L0+\"]", 1);
        assert!(Certificate::parse(&ok, &limits).is_ok());
    }
}
