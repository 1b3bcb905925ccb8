//! The shard wire protocol: length-prefixed binary frames on localhost TCP.
//!
//! A frame is `[u32 LE: frame length][u8: kind][payload]`, where the length
//! covers the kind byte plus the payload. The kind byte discriminates message
//! types; the payload is a fixed little-endian encoding of the matching
//! payload struct, empty for `Ping`:
//!
//! * integers are fixed-width LE (`usize` fields travel as `u64`);
//! * every `f64` travels as its `to_bits()` `u64`, so every score bit
//!   survives the wire — NaN payloads, ±inf and −0.0 included — which is
//!   what keeps the coordinator's merged scores bit-identical to
//!   single-process serving;
//! * a string is a `u32` byte length followed by UTF-8 bytes (validated on
//!   decode);
//! * a `Vec` is a `u32` element count followed by its elements;
//! * struct fields follow in the order of the `wire_struct!` invocations
//!   below (docs/distributed.md tabulates the layout per kind).
//!
//! Decoding is total: every declared count is checked against the bytes
//! left in the frame *before* anything is allocated for it, and a truncated,
//! overlong or trailing-byte payload is an `io::ErrorKind::InvalidData`
//! error, never a panic. Frame bodies are capped at [`MAX_FRAME_BYTES`] on
//! both sides.
//!
//! Request/response correlation is by explicit `id`: the coordinator
//! pipelines many `Eval` frames down one connection and the shard may
//! interleave replies from its evaluation threads in any order.

use ajax_crawl::StateId;
use ajax_index::{DocKey, Query, RankWeights, ShardResult, ShardTermStats};
use std::io::{self, Read, Write};

/// Protocol version, exchanged in [`ShardInfo`] at handshake. Version 1
/// carried JSON payloads; a v1 peer fails the v2 handshake with a decode
/// error.
pub const PROTO_VERSION: u64 = 2;

/// Upper bound on a frame body; anything larger means a corrupt or hostile
/// peer and is refused before allocation.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

const KIND_EVAL: u8 = 1;
const KIND_REPLY: u8 = 2;
const KIND_PING: u8 = 3;
const KIND_PONG: u8 = 4;
const KIND_ERROR: u8 = 5;

/// Coordinator → shard: evaluate `query` under `weights`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// Correlation id, echoed in the reply.
    pub id: u64,
    pub query: Query,
    pub weights: RankWeights,
}

/// Shard → coordinator: the local results plus the term stats the merger
/// needs for global idf (df per term, shard state count) — the "idf
/// exchange" travels with every reply, so the coordinator never caches
/// stale statistics across reloads.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReply {
    pub id: u64,
    pub results: Vec<ShardResult>,
    pub stats: ShardTermStats,
}

/// Shard → coordinator at handshake (`Pong`): identity and index shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardInfo {
    pub shard_id: u64,
    pub proto_version: u64,
    /// `|Idx_i|` — used for diagnostics; the authoritative value for merging
    /// always comes per-reply in [`EvalReply::stats`].
    pub total_states: u64,
    pub index_bytes: u64,
    pub term_count: u64,
}

/// Shard → coordinator: the request with this `id` could not be evaluated.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    pub id: u64,
    pub message: String,
}

/// One protocol message, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    Eval(EvalRequest),
    Reply(EvalReply),
    Ping,
    Pong(ShardInfo),
    Error(WireError),
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The unread tail of one frame's payload.
struct Payload<'a>(&'a [u8]);

impl<'a> Payload<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.0.len() {
            return Err(invalid(format!(
                "truncated payload: {n} bytes wanted, {} left",
                self.0.len()
            )));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut bytes = [0u8; N];
        bytes.copy_from_slice(self.take(N)?);
        Ok(bytes)
    }

    /// A `u32` element count, refused when that many elements of at least
    /// `min_len` bytes each could not fit in what is left of the frame.
    fn count(&mut self, min_len: usize) -> io::Result<usize> {
        let n = u32::get(self)? as usize;
        if n.saturating_mul(min_len) > self.0.len() {
            return Err(invalid(format!(
                "count {n} exceeds the {} payload bytes left",
                self.0.len()
            )));
        }
        Ok(n)
    }
}

/// A value with a fixed little-endian wire encoding.
///
/// Encoding never fails: a count or length too large for its `u32` prefix
/// implies a frame far beyond [`MAX_FRAME_BYTES`], which `write_message`
/// refuses as a whole.
trait Wire: Sized {
    /// Fewest bytes one encoded value takes — bounds a declared element
    /// count against the bytes left before anything is allocated.
    const MIN_LEN: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn get(p: &mut Payload<'_>) -> io::Result<Self>;
}

impl Wire for u32 {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(p: &mut Payload<'_>) -> io::Result<Self> {
        Ok(u32::from_le_bytes(p.array()?))
    }
}

impl Wire for u64 {
    const MIN_LEN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(p: &mut Payload<'_>) -> io::Result<Self> {
        Ok(u64::from_le_bytes(p.array()?))
    }
}

impl Wire for usize {
    const MIN_LEN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(p: &mut Payload<'_>) -> io::Result<Self> {
        let v = u64::get(p)?;
        usize::try_from(v).map_err(|_| invalid(format!("{v} does not fit in usize")))
    }
}

impl Wire for f64 {
    const MIN_LEN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn get(p: &mut Payload<'_>) -> io::Result<Self> {
        Ok(f64::from_bits(u64::get(p)?))
    }
}

impl Wire for String {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(p: &mut Payload<'_>) -> io::Result<Self> {
        let len = p.count(1)?;
        let bytes = p.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|e| invalid(format!("string is not UTF-8: {e}")))
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for item in self {
            item.put(out);
        }
    }
    fn get(p: &mut Payload<'_>) -> io::Result<Self> {
        let n = p.count(T::MIN_LEN)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(p)?);
        }
        Ok(items)
    }
}

impl Wire for StateId {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn get(p: &mut Payload<'_>) -> io::Result<Self> {
        Ok(StateId(u32::get(p)?))
    }
}

/// Implements [`Wire`] for a struct as the concatenation of its fields, in
/// the order listed — each invocation is that struct's wire layout.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident: $fty:ty),* $(,)? }) => {
        impl Wire for $ty {
            const MIN_LEN: usize = 0 $(+ <$fty as Wire>::MIN_LEN)*;
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }
            fn get(p: &mut Payload<'_>) -> io::Result<Self> {
                Ok($ty { $($field: <$fty as Wire>::get(p)?),* })
            }
        }
    };
}

wire_struct!(DocKey {
    page: u32,
    state: StateId,
});
wire_struct!(Query {
    terms: Vec<String>,
});
wire_struct!(RankWeights {
    pagerank: f64,
    ajaxrank: f64,
    tfidf: f64,
    proximity: f64,
});
wire_struct!(ShardResult {
    shard: usize,
    url: String,
    doc: DocKey,
    base_score: f64,
    tfs: Vec<f64>,
});
wire_struct!(ShardTermStats {
    total_states: u64,
    df: Vec<u64>,
});
wire_struct!(EvalRequest {
    id: u64,
    weights: RankWeights,
    query: Query,
});
wire_struct!(EvalReply {
    id: u64,
    stats: ShardTermStats,
    results: Vec<ShardResult>,
});
wire_struct!(ShardInfo {
    shard_id: u64,
    proto_version: u64,
    total_states: u64,
    index_bytes: u64,
    term_count: u64,
});
wire_struct!(WireError {
    id: u64,
    message: String,
});

/// Writes one frame. Not atomic across callers — writers serialize access
/// (the transport holds a per-connection write lock).
pub fn write_message(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    // One write per frame: header and payload coalesced so the kernel sees a
    // single segment (three small writes would hit Nagle + delayed-ACK
    // stalls of ~40 ms each on localhost). The length is patched in last.
    let mut frame = Vec::with_capacity(256);
    frame.extend_from_slice(&[0; 4]);
    match msg {
        Message::Eval(m) => {
            frame.push(KIND_EVAL);
            m.put(&mut frame);
        }
        Message::Reply(m) => {
            frame.push(KIND_REPLY);
            m.put(&mut frame);
        }
        Message::Ping => frame.push(KIND_PING),
        Message::Pong(m) => {
            frame.push(KIND_PONG);
            m.put(&mut frame);
        }
        Message::Error(m) => {
            frame.push(KIND_ERROR);
            m.put(&mut frame);
        }
    }
    let len = frame.len() - 4;
    if len > MAX_FRAME_BYTES as usize {
        return Err(invalid(format!("frame of {len} bytes exceeds limit")));
    }
    frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame, blocking. `Err(UnexpectedEof)` on connection close,
/// `Err(InvalidData)` on a malformed frame. Callers on a socket wrap it in
/// a `BufReader`, so a frame costs one syscall rather than one per field.
pub fn read_message(r: &mut impl Read) -> io::Result<Message> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len == 0 {
        return Err(invalid("zero-length frame".to_string()));
    }
    if len > MAX_FRAME_BYTES {
        return Err(invalid(format!("frame of {len} bytes exceeds limit")));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let mut payload = Payload(&body[1..]);
    let msg = match body[0] {
        KIND_EVAL => Message::Eval(EvalRequest::get(&mut payload)?),
        KIND_REPLY => Message::Reply(EvalReply::get(&mut payload)?),
        KIND_PING => Message::Ping,
        KIND_PONG => Message::Pong(ShardInfo::get(&mut payload)?),
        KIND_ERROR => Message::Error(WireError::get(&mut payload)?),
        other => return Err(invalid(format!("unknown frame kind {other}"))),
    };
    if !payload.0.is_empty() {
        return Err(invalid(format!(
            "{} trailing bytes after a kind-{} payload",
            payload.0.len(),
            body[0]
        )));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encode(msg: &Message) -> Vec<u8> {
        let mut buf = Vec::new();
        write_message(&mut buf, msg).unwrap();
        buf
    }

    fn round_trip(msg: Message) -> Message {
        read_message(&mut encode(&msg).as_slice()).unwrap()
    }

    /// A message with every float replaced by its bits, so NaN compares
    /// equal to itself and −0.0 differs from 0.0.
    fn bits(msg: &Message) -> String {
        fn f(x: f64) -> u64 {
            x.to_bits()
        }
        match msg {
            Message::Eval(m) => {
                let w = &m.weights;
                let ws = [f(w.pagerank), f(w.ajaxrank), f(w.tfidf), f(w.proximity)];
                format!("eval {} {:?} {ws:?}", m.id, m.query.terms)
            }
            Message::Reply(m) => {
                let results: Vec<_> = m
                    .results
                    .iter()
                    .map(|r| {
                        let tfs: Vec<u64> = r.tfs.iter().copied().map(f).collect();
                        (r.shard, &r.url, r.doc, f(r.base_score), tfs)
                    })
                    .collect();
                format!("reply {} {:?} {results:?}", m.id, m.stats)
            }
            other => format!("{other:?}"),
        }
    }

    /// Deterministic generator of hostile-but-valid messages: floats from
    /// raw bit patterns and edge values, strings from an alphabet with
    /// multi-byte characters, empty collections.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            // SplitMix64.
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn f64(&mut self) -> f64 {
            const EDGES: [f64; 9] = [
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,
                f64::MAX,
                f64::EPSILON,
                0.1 + 0.2,
                1.0 / 3.0,
            ];
            match self.below(4) {
                0 => f64::from_bits(self.next()),
                // NaN with a random payload and sign.
                1 => f64::from_bits(0x7FF0_0000_0000_0001 | (self.next() & 0x800F_FFFF_FFFF_FFFF)),
                // Subnormal (or zero), either sign.
                2 => f64::from_bits(self.next() & 0x800F_FFFF_FFFF_FFFF),
                _ => EDGES[self.below(EDGES.len() as u64) as usize],
            }
        }

        fn string(&mut self) -> String {
            const PIECES: [&str; 8] =
                ["", "a", "wow", "é", "日本", "🎵", "\0", "http://v/watch?v="];
            (0..self.below(4))
                .map(|_| PIECES[self.below(PIECES.len() as u64) as usize])
                .collect()
        }

        fn vec<T>(&mut self, max: u64, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
            (0..self.below(max + 1)).map(|_| item(self)).collect()
        }

        fn request(&mut self) -> EvalRequest {
            EvalRequest {
                id: self.next(),
                query: Query {
                    terms: self.vec(4, Gen::string),
                },
                weights: RankWeights {
                    pagerank: self.f64(),
                    ajaxrank: self.f64(),
                    tfidf: self.f64(),
                    proximity: self.f64(),
                },
            }
        }

        fn reply(&mut self, max_results: u64) -> EvalReply {
            let terms = self.below(4);
            EvalReply {
                id: self.next(),
                results: self.vec(max_results, |g| ShardResult {
                    shard: g.below(64) as usize,
                    url: g.string(),
                    doc: DocKey {
                        page: g.next() as u32,
                        state: StateId(g.next() as u32),
                    },
                    base_score: g.f64(),
                    tfs: (0..terms).map(|_| g.f64()).collect(),
                }),
                stats: ShardTermStats {
                    total_states: self.next(),
                    df: (0..terms).map(|_| self.next()).collect(),
                },
            }
        }

        fn message(&mut self) -> Message {
            match self.below(5) {
                0 => Message::Eval(self.request()),
                1 => Message::Reply(self.reply(3)),
                2 => Message::Ping,
                3 => Message::Pong(ShardInfo {
                    shard_id: self.next(),
                    proto_version: PROTO_VERSION,
                    total_states: self.next(),
                    index_bytes: self.next(),
                    term_count: self.next(),
                }),
                _ => Message::Error(WireError {
                    id: self.next(),
                    message: self.string(),
                }),
            }
        }
    }

    /// Decoding `frame` may fail but must not panic; when it succeeds, the
    /// encoding is canonical, so re-encoding gives back the declared frame.
    fn decodes_canonically_or_fails(frame: &[u8]) -> Result<(), TestCaseError> {
        if let Ok(msg) = read_message(&mut &frame[..]) {
            let declared = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            prop_assert_eq!(encode(&msg), frame[..4 + declared].to_vec());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_requests_and_replies_round_trip_bit_exactly(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let request = Message::Eval(g.request());
            prop_assert_eq!(bits(&round_trip(request.clone())), bits(&request));
            let reply = Message::Reply(g.reply(12));
            prop_assert_eq!(bits(&round_trip(reply.clone())), bits(&reply));
        }

        #[test]
        fn truncated_and_bit_flipped_frames_never_panic(seed in any::<u64>()) {
            let frame = encode(&Gen(seed).message());
            for cut in 0..frame.len() {
                prop_assert!(read_message(&mut &frame[..cut]).is_err(), "prefix {cut} decoded");
                // The same cut with the length header rewritten to match:
                // a strict prefix of a payload never decodes.
                if cut >= 5 {
                    let mut short = frame[..cut].to_vec();
                    short[..4].copy_from_slice(&(cut as u32 - 4).to_le_bytes());
                    prop_assert!(read_message(&mut short.as_slice()).is_err(), "payload cut at {cut} decoded");
                }
            }
            for bit in 0..frame.len() * 8 {
                let mut flipped = frame.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                decodes_canonically_or_fails(&flipped)?;
            }
        }
    }

    #[test]
    fn eval_round_trips() {
        let msg = Message::Eval(EvalRequest {
            id: 42,
            query: Query::parse("Morcheeba Enjoy the Ride"),
            weights: RankWeights::default(),
        });
        assert_eq!(round_trip(msg.clone()), msg);
    }

    #[test]
    fn reply_round_trips_score_bits_exactly() {
        // Merge-time fusion relies on these bits surviving the wire
        // unchanged, the non-finite ones included.
        let scores = [
            0.1 + 0.2,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e-300,
            123.456e37,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::from_bits(1), // smallest subnormal
        ];
        for (i, &score) in scores.iter().enumerate() {
            let msg = Message::Reply(EvalReply {
                id: i as u64,
                results: vec![ShardResult {
                    shard: 3,
                    url: "http://v/watch?v=1".into(),
                    doc: DocKey {
                        page: 7,
                        state: StateId(9),
                    },
                    base_score: score,
                    tfs: vec![score * 0.5, score],
                }],
                stats: ShardTermStats {
                    total_states: 1000,
                    df: vec![17, 0],
                },
            });
            let Message::Reply(decoded) = round_trip(msg) else {
                panic!("wrong kind")
            };
            assert_eq!(
                decoded.results[0].base_score.to_bits(),
                score.to_bits(),
                "bit-exact f64 round-trip for {score}"
            );
            assert_eq!(decoded.results[0].tfs[1].to_bits(), score.to_bits());
        }
    }

    #[test]
    fn empty_reply_and_empty_strings_round_trip() {
        let msg = Message::Reply(EvalReply {
            id: 0,
            results: Vec::new(),
            stats: ShardTermStats {
                total_states: 0,
                df: Vec::new(),
            },
        });
        assert_eq!(round_trip(msg.clone()), msg);
        let msg = Message::Error(WireError {
            id: u64::MAX,
            message: String::new(),
        });
        assert_eq!(round_trip(msg.clone()), msg);
    }

    #[test]
    fn ping_pong_round_trip() {
        assert_eq!(round_trip(Message::Ping), Message::Ping);
        let pong = Message::Pong(ShardInfo {
            shard_id: 2,
            proto_version: PROTO_VERSION,
            total_states: 5000,
            index_bytes: 1 << 20,
            term_count: 31337,
        });
        assert_eq!(round_trip(pong.clone()), pong);
    }

    #[test]
    fn error_round_trips() {
        let msg = Message::Error(WireError {
            id: 9,
            message: "evaluation panicked".into(),
        });
        assert_eq!(round_trip(msg.clone()), msg);
    }

    #[test]
    fn pipelined_frames_decode_in_sequence() {
        let mut buf = Vec::new();
        for id in 0..5u64 {
            write_message(
                &mut buf,
                &Message::Eval(EvalRequest {
                    id,
                    query: Query::parse("wow"),
                    weights: RankWeights::default(),
                }),
            )
            .unwrap();
        }
        let mut cursor = buf.as_slice();
        for id in 0..5u64 {
            let Message::Eval(req) = read_message(&mut cursor).unwrap() else {
                panic!("wrong kind")
            };
            assert_eq!(req.id, id);
        }
        assert!(read_message(&mut cursor).is_err(), "EOF after last frame");
    }

    fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32 + 1).to_le_bytes().to_vec();
        out.push(kind);
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn oversized_and_garbage_frames_are_refused() {
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        oversized.push(KIND_PING);
        assert!(read_message(&mut oversized.as_slice()).is_err());

        assert!(read_message(&mut frame(200, b"x").as_slice()).is_err());

        let mut zero = Vec::new();
        zero.extend_from_slice(&0u32.to_le_bytes());
        assert!(read_message(&mut zero.as_slice()).is_err());
    }

    #[test]
    fn malformed_payloads_are_invalid_data() {
        let invalid_data = |bytes: Vec<u8>| {
            read_message(&mut bytes.as_slice()).unwrap_err().kind() == io::ErrorKind::InvalidData
        };
        // Trailing bytes after a complete payload.
        assert!(invalid_data(frame(KIND_PING, b"x")));
        let mut pong = encode(&Message::Pong(ShardInfo {
            shard_id: 0,
            proto_version: PROTO_VERSION,
            total_states: 0,
            index_bytes: 0,
            term_count: 0,
        }));
        pong[0] += 1;
        pong.push(0);
        assert!(invalid_data(pong));
        // Truncated payload.
        assert!(invalid_data(frame(KIND_PONG, &[0; 39])));
        // A string that is not UTF-8.
        let mut error = 1u64.to_le_bytes().to_vec();
        error.extend_from_slice(&2u32.to_le_bytes());
        error.extend_from_slice(&[0xC3, 0x28]);
        assert!(invalid_data(frame(KIND_ERROR, &error)));
    }
}
