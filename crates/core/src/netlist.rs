//! A plain-text netlist format for latency-insensitive systems.
//!
//! The format is line-oriented and designed to round-trip through
//! [`to_netlist`] / [`parse_netlist`]:
//!
//! ```text
//! # Comments run to the end of the line.
//! block A
//! block B
//! channel A -> B rs=1      # one relay station, queue defaults to 1
//! channel A -> B q=2       # no stations, queue capacity 2
//! ```
//!
//! Block names are bare identifiers (`[A-Za-z0-9_.-]+`) or double-quoted
//! strings with `\"` and `\\` escapes. Channels may reference blocks before
//! their `block` line; referencing a block that never appears is an error.
//!
//! [`parse_netlist`] reads the text once, line by line, pulling tokens off
//! each line as it needs them instead of collecting them. Names are
//! borrowed from the text until they are copied into the system's name
//! arena (see [`LisSystem`]); only a quoted name with escapes needs a copy
//! of its own. With every buffer sized from the line count up front, a
//! netlist of any size costs the same handful of allocations, which
//! matters to the daemon: its event loop parses every cold request and a
//! worker frees the system.
//!
//! # Examples
//!
//! ```
//! use lis_core::{parse_netlist, practical_mst, to_netlist};
//! use marked_graph::Ratio;
//!
//! let text = "
//!     block A
//!     block B
//!     channel A -> B rs=1
//!     channel A -> B
//! ";
//! let sys = parse_netlist(text)?;
//! assert_eq!(practical_mst(&sys), Ratio::new(2, 3)); // the Fig. 5 value
//! let round = parse_netlist(&to_netlist(&sys))?;
//! assert_eq!(round.channel_count(), 2);
//! # Ok::<(), lis_core::ParseNetlistError>(())
//! ```

use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::error::Error as StdError;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

use crate::system::{BlockId, LisSystem};

/// The largest queue capacity a netlist (or a design sweep's capacity axis)
/// may declare: far beyond any real design, and small enough that the
/// solvers' reduced weights `den·m − num` stay far from `i64` overflow.
pub const MAX_CAPACITY: u64 = 1_000_000;

/// The most relay stations a netlist may declare over all its channels.
/// Each station becomes a transition of the doubled model, so without a
/// cap a few bytes (`rs=8000000`) would cost seconds and gigabytes.
pub const MAX_RELAY_STATIONS: u64 = 65_536;

/// An error produced while parsing a netlist, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNetlistError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "netlist line {}: {}", self.line, self.message)
    }
}

impl StdError for ParseNetlistError {}

fn err(line: usize, message: impl Into<String>) -> ParseNetlistError {
    ParseNetlistError {
        line,
        message: message.into(),
    }
}

/// One token of a netlist line, borrowed from the line. Only a quoted name
/// with escapes needs an owned copy. The derived `Debug` is part of the
/// rendered errors (`unknown directive Word("blok")`).
#[derive(Debug, Clone, PartialEq)]
enum Tok<'a> {
    Word(Cow<'a, str>),
    Arrow,
    KeyVal(&'a str, &'a str),
}

/// Bytes that continue a bare word with no further look: ASCII other than
/// whitespace, `#`, `-` and `=`.
const PLAIN: [bool; 256] = {
    let mut plain = [false; 256];
    let mut b = 0;
    while b < 0x80 {
        plain[b] = !matches!(
            b as u8,
            b' ' | b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r' | b'#' | b'-' | b'='
        );
        b += 1;
    }
    plain
};

/// A cursor over the netlist text that hands out the tokens of the current
/// line on demand: one pass over the bytes, no per-line buffer.
struct Cursor<'a> {
    text: &'a str,
    /// Byte offset of the next unread byte, never past the current line's
    /// `\n`.
    pos: usize,
    /// 1-based number of the current line.
    line: usize,
}

impl<'a> Cursor<'a> {
    /// The next token of the current line, `None` at its end or at a
    /// comment.
    fn next(&mut self) -> Result<Option<Tok<'a>>, ParseNetlistError> {
        let text = self.text;
        let bytes = text.as_bytes();
        // Skip whitespace as `str::trim_start` would; a `\r` before the
        // line's `\n` is whitespace too, as `str::lines` would drop it.
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\x0b' | b'\x0c' | b'\r' => self.pos += 1,
                0..=0x7f => break,
                _ => match text[self.pos..].chars().next() {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => break,
                },
            }
        }
        let start = self.pos;
        let tok = match bytes.get(start) {
            None | Some(b'\n') => return Ok(None),
            Some(b'#') => {
                self.pos = self.line_end();
                return Ok(None);
            }
            Some(b'"') => {
                // The name ends on this line; `str::lines` would have cut a
                // `\r` right before the `\n`.
                let end = self.line_end();
                let line = &text[start + 1..end];
                let line = match bytes.get(end) {
                    Some(b'\n') => line.strip_suffix('\r').unwrap_or(line),
                    _ => line,
                };
                let (name, len) = quoted(line, self.line)?;
                self.pos = start + 1 + len;
                Tok::Word(name)
            }
            Some(b'-') if bytes.get(start + 1) == Some(&b'>') => {
                self.pos = start + 2;
                Tok::Arrow
            }
            Some(_) => {
                // A bare word runs to whitespace, a comment or an arrow (a
                // lone `-` belongs to hyphenated names).
                let mut eq = None;
                while let Some(&b) = bytes.get(self.pos) {
                    if PLAIN[usize::from(b)] {
                        self.pos += 1;
                        continue;
                    }
                    match b {
                        b' ' | b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r' | b'#' => break,
                        b'-' if bytes.get(self.pos + 1) == Some(&b'>') => break,
                        b'=' => {
                            eq = eq.or(Some(self.pos));
                            self.pos += 1;
                        }
                        0..=0x7f => self.pos += 1,
                        _ => match text[self.pos..].chars().next() {
                            Some(c) if !c.is_whitespace() => self.pos += c.len_utf8(),
                            _ => break,
                        },
                    }
                }
                match eq {
                    Some(eq) => Tok::KeyVal(&text[start..eq], &text[eq + 1..self.pos]),
                    None => Tok::Word(Cow::Borrowed(&text[start..self.pos])),
                }
            }
        };
        Ok(Some(tok))
    }

    /// The error for a malformed line. A syntax error later on the same
    /// line (a bad quoted name) takes precedence, as it would if the line
    /// were tokenized in full before being read.
    fn fail(&mut self, message: impl Into<String>) -> ParseNetlistError {
        loop {
            match self.next() {
                Ok(Some(_)) => {}
                Ok(None) => return err(self.line, message),
                Err(e) => return e,
            }
        }
    }

    /// The offset of the current line's `\n`, or the end of the text.
    fn line_end(&self) -> usize {
        self.text[self.pos..]
            .find('\n')
            .map_or(self.text.len(), |i| self.pos + i)
    }

    /// Moves to the start of the next line, once the current one has been
    /// read to its end; false at the end of the text.
    fn next_line(&mut self) -> bool {
        if self.pos >= self.text.len() {
            return false;
        }
        self.pos += 1;
        self.line += 1;
        self.pos < self.text.len()
    }
}

/// Parses a quoted name whose opening quote precedes `s` (the rest of its
/// line), returning the name and the number of bytes of `s` it took,
/// closing quote included.
fn quoted(s: &str, lineno: usize) -> Result<(Cow<'_, str>, usize), ParseNetlistError> {
    match s.find(['"', '\\']) {
        Some(i) if s.as_bytes()[i] == b'"' => return Ok((Cow::Borrowed(&s[..i]), i + 1)),
        Some(_) => {}
        None => return Err(err(lineno, "unterminated quoted name")),
    }
    // One allocation: the name is no longer than the rest of the line.
    let mut name = String::with_capacity(s.len());
    let mut chars = s.char_indices();
    loop {
        match chars.next() {
            Some((i, '"')) => return Ok((Cow::Owned(name), i + 1)),
            Some((_, '\\')) => match chars.next().map(|(_, c)| c) {
                Some('"') => name.push('"'),
                Some('\\') => name.push('\\'),
                other => {
                    return Err(err(
                        lineno,
                        format!("invalid escape {other:?} in quoted name"),
                    ))
                }
            },
            Some((_, c)) => name.push(c),
            None => return Err(err(lineno, "unterminated quoted name")),
        }
    }
}

/// Builds the hasher of the parser's name map: a folded multiply keyed from
/// std's per-process random seed. Names come from requests, so the keys
/// keep them from being chosen to collide (what std's SipHash default is
/// for) at a fraction of SipHash's cost on short names.
#[derive(Clone, Copy)]
struct NameHash {
    seed: u64,
    multiplier: u64,
}

impl NameHash {
    fn new() -> NameHash {
        let keys = RandomState::new();
        NameHash {
            seed: keys.hash_one(0u64),
            // Nonzero, or every name would hash alike.
            multiplier: keys.hash_one(1u64) | 1,
        }
    }
}

impl BuildHasher for NameHash {
    type Hasher = NameHasher;

    fn build_hasher(&self) -> NameHasher {
        NameHasher {
            state: self.seed,
            multiplier: self.multiplier,
        }
    }
}

struct NameHasher {
    state: u64,
    multiplier: u64,
}

impl NameHasher {
    fn mix(&mut self, word: u64) {
        let p = u128::from(self.state ^ word) * u128::from(self.multiplier);
        self.state = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        // The tail, with the length so that no two inputs share a last word.
        let tail = words
            .remainder()
            .iter()
            .rev()
            .fold(0u64, |w, &b| (w << 8) | u64::from(b));
        self.mix(tail ^ ((bytes.len() as u64) << 56));
    }

    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// Parses a netlist into a [`LisSystem`].
///
/// One pass over the bytes, tokenized in place. Names stay borrowed from
/// `text` (only a quoted name with escapes is copied) and resolve through
/// one map. Every buffer is sized up front from the text's length, so a
/// netlist without escaped names costs a constant number of allocations
/// whatever its size: the system's three buffers, the name map and the
/// pending-channel list.
///
/// # Errors
///
/// Returns [`ParseNetlistError`] on syntax errors, duplicate block names,
/// references to undeclared blocks, or invalid attribute values: a queue
/// capacity of 0 or above [`MAX_CAPACITY`], and relay stations past
/// [`MAX_RELAY_STATIONS`] in total (on the line that passes it). The first
/// malformed line wins; undeclared names are reported after the last line,
/// for the first channel in file order that has one.
pub fn parse_netlist(text: &str) -> Result<LisSystem, ParseNetlistError> {
    // Bounds from the text's length alone: the shortest block line is
    // `block a` and the shortest channel line `channel a->b`, each with its
    // `\n` unless it is the last, and no name is longer than the text.
    let max_blocks = (text.len() + 1) / 8;
    let max_channels = (text.len() + 1) / 13;
    let mut sys = LisSystem::new();
    sys.reserve(text.len(), max_blocks, 0);
    let mut blocks: HashMap<Cow<'_, str>, BlockId, NameHash> =
        HashMap::with_capacity_and_hasher(max_blocks, NameHash::new());
    // Channels may reference blocks declared later: collect first, resolve
    // at the end.
    struct PendingChannel<'a> {
        line: usize,
        from: Cow<'a, str>,
        to: Cow<'a, str>,
        rs: u32,
        q: u64,
    }
    let mut pending: Vec<PendingChannel<'_>> = Vec::with_capacity(max_channels);
    let mut relay_stations = 0u64;

    let mut toks = Cursor {
        text,
        pos: 0,
        line: 1,
    };
    loop {
        let lineno = toks.line;
        match toks.next()? {
            None => {}
            Some(Tok::Word(w)) if w == "block" => {
                const EXPECTED: &str = "expected: block <name> [uninitialized]";
                let Some(Tok::Word(name)) = toks.next()? else {
                    return Err(toks.fail(EXPECTED));
                };
                let uninitialized = match toks.next()? {
                    None => false,
                    Some(Tok::Word(attr)) if attr == "uninitialized" => true,
                    Some(_) => return Err(toks.fail(EXPECTED)),
                };
                if uninitialized && toks.next()?.is_some() {
                    return Err(toks.fail(EXPECTED));
                }
                let slot = match blocks.entry(name) {
                    Entry::Occupied(e) => {
                        return Err(err(lineno, format!("duplicate block {:?}", e.key())))
                    }
                    Entry::Vacant(slot) => slot,
                };
                let id = if uninitialized {
                    sys.add_uninitialized_block(slot.key())
                } else {
                    sys.add_block(slot.key())
                };
                slot.insert(id);
            }
            Some(Tok::Word(w)) if w == "channel" => {
                let (Some(Tok::Word(from)), Some(Tok::Arrow), Some(Tok::Word(to))) =
                    (toks.next()?, toks.next()?, toks.next()?)
                else {
                    return Err(toks.fail("expected: channel <from> -> <to> [rs=<n>] [q=<n>]"));
                };
                let mut rs = 0u32;
                let mut q = 1u64;
                while let Some(attr) = toks.next()? {
                    let problem = match attr {
                        Tok::KeyVal("rs", v) => match v.parse() {
                            Ok(n) => {
                                // A repeated `rs=` replaces the channel's count.
                                relay_stations = relay_stations - u64::from(rs) + u64::from(n);
                                if relay_stations <= MAX_RELAY_STATIONS {
                                    rs = n;
                                    continue;
                                }
                                format!(
                                    "{relay_stations} relay stations exceed the netlist's cap of {MAX_RELAY_STATIONS}"
                                )
                            }
                            Err(_) => format!("rs wants a nonnegative integer, got {v:?}"),
                        },
                        Tok::KeyVal("q", v) => match v.parse() {
                            Ok(0) => "queue capacity must be at least 1".to_string(),
                            Ok(n) if n > MAX_CAPACITY => {
                                format!("queue capacity {n} exceeds the cap of {MAX_CAPACITY}")
                            }
                            Ok(n) => {
                                q = n;
                                continue;
                            }
                            Err(_) => format!("q wants a positive integer, got {v:?}"),
                        },
                        other => format!("unknown channel attribute {other:?}"),
                    };
                    return Err(toks.fail(problem));
                }
                pending.push(PendingChannel {
                    line: lineno,
                    from,
                    to,
                    rs,
                    q,
                });
            }
            Some(other) => return Err(toks.fail(format!("unknown directive {other:?}"))),
        }
        if !toks.next_line() {
            break;
        }
    }

    let lookup = |line: usize, name: &Cow<'_, str>| {
        blocks
            .get(name.as_ref())
            .copied()
            .ok_or_else(|| err(line, format!("unknown block {name:?}")))
    };
    sys.reserve(0, 0, pending.len());
    for p in &pending {
        let from = lookup(p.line, &p.from)?;
        let to = lookup(p.line, &p.to)?;
        sys.push_channel(from, to, p.rs, p.q);
    }
    Ok(sys)
}

fn quote_if_needed(name: &str) -> String {
    let bare = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && !name.contains("->")
        && !name.contains('=');
    if bare {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('\\', "\\\\").replace('"', "\\\""))
    }
}

/// Serializes a system in the netlist format. Output round-trips through
/// [`parse_netlist`].
pub fn to_netlist(sys: &LisSystem) -> String {
    let mut out = String::new();
    out.push_str("# latency-insensitive system netlist\n");
    for b in sys.block_ids() {
        let attr = if sys.is_initialized(b) {
            ""
        } else {
            " uninitialized"
        };
        out.push_str(&format!(
            "block {}{attr}\n",
            quote_if_needed(sys.block_name(b))
        ));
    }
    for c in sys.channel_ids() {
        out.push_str(&format!(
            "channel {} -> {}",
            quote_if_needed(sys.block_name(sys.channel_from(c))),
            quote_if_needed(sys.block_name(sys.channel_to(c)))
        ));
        if sys.relay_stations_on(c) > 0 {
            out.push_str(&format!(" rs={}", sys.relay_stations_on(c)));
        }
        if sys.queue_capacity(c) != 1 {
            out.push_str(&format!(" q={}", sys.queue_capacity(c)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mst::practical_mst;
    use crate::system::ChannelId;
    use marked_graph::Ratio;

    #[test]
    fn parses_fig1() {
        let sys =
            parse_netlist("# Fig. 1\nblock A\nblock B\nchannel A -> B rs=1\nchannel A -> B\n")
                .unwrap();
        assert_eq!(sys.block_count(), 2);
        assert_eq!(sys.channel_count(), 2);
        assert_eq!(sys.relay_station_count(), 1);
        assert_eq!(practical_mst(&sys), Ratio::new(2, 3));
    }

    #[test]
    fn attributes_and_defaults() {
        let sys = parse_netlist("block a\nblock b\nchannel a -> b rs=3 q=7\n").unwrap();
        let c = sys.channel_ids().next().unwrap();
        assert_eq!(sys.relay_stations_on(c), 3);
        assert_eq!(sys.queue_capacity(c), 7);
    }

    #[test]
    fn forward_references_allowed() {
        let sys = parse_netlist("channel a -> b\nblock a\nblock b\n").unwrap();
        assert_eq!(sys.channel_count(), 1);
    }

    #[test]
    fn quoted_names_and_escapes() {
        let sys = parse_netlist("block \"A -> B \\\" x\"\nblock plain\n").unwrap();
        assert_eq!(
            sys.block_name(crate::system::BlockId::new(0)),
            "A -> B \" x"
        );
        let text = to_netlist(&sys);
        let round = parse_netlist(&text).unwrap();
        assert_eq!(
            round.block_name(crate::system::BlockId::new(0)),
            "A -> B \" x"
        );
    }

    #[test]
    fn hyphenated_names_are_not_arrows() {
        let sys =
            parse_netlist("block tx-filter\nblock fft-in\nchannel fft-in -> tx-filter\n").unwrap();
        assert_eq!(sys.block_count(), 2);
        assert_eq!(sys.channel_count(), 1);
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (mut sys, upper, lower) = crate::figures::fig1();
        sys.set_queue_capacity(lower, 2).unwrap();
        let text = to_netlist(&sys);
        let round = parse_netlist(&text).unwrap();
        assert_eq!(round.block_count(), sys.block_count());
        assert_eq!(round.channel_count(), sys.channel_count());
        assert_eq!(round.relay_stations_on(upper), sys.relay_stations_on(upper));
        assert_eq!(round.queue_capacity(lower), 2);
        assert_eq!(practical_mst(&round), practical_mst(&sys));
    }

    #[test]
    fn error_reporting() {
        let cases = [
            ("blok A\n", 1, "unknown directive"),
            ("block A\nblock A\n", 2, "duplicate block"),
            ("channel A -> B\n", 1, "unknown block"),
            ("block A\nchannel A ->\n", 2, "expected: channel"),
            ("block A\nblock B\nchannel A -> B rs=x\n", 3, "rs wants"),
            ("block A\nblock B\nchannel A -> B q=0\n", 3, "at least 1"),
            ("block \"unterminated\n", 1, "unterminated"),
            (
                "block A\nchannel A -> B frob=1\nblock B\n",
                2,
                "unknown channel attribute",
            ),
        ];
        for (text, line, needle) in cases {
            let e = parse_netlist(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}");
            assert!(
                e.message.contains(needle),
                "{text:?}: message {:?} lacks {needle:?}",
                e.message
            );
            assert!(e.to_string().contains("netlist line"));
        }
    }

    #[test]
    fn rendered_errors_are_pinned() {
        // The server returns these strings verbatim in 400 bodies.
        let cases = [
            (
                "blok A\n",
                r#"netlist line 1: unknown directive Word("blok")"#,
            ),
            ("-> A\n", "netlist line 1: unknown directive Arrow"),
            (
                "rs=1 block\n",
                r#"netlist line 1: unknown directive KeyVal("rs", "1")"#,
            ),
            (
                "block A\nblock A\n",
                r#"netlist line 2: duplicate block "A""#,
            ),
            (
                "block \"x\\\"y\"\nblock \"x\\\"y\"\n",
                r#"netlist line 2: duplicate block "x\"y""#,
            ),
            (
                "block\tA\r\nblock A#c\n",
                r#"netlist line 2: duplicate block "A""#,
            ),
            (
                "channel A->B\nblock A\n",
                r#"netlist line 1: unknown block "B""#,
            ),
            (
                "block a=b\n",
                "netlist line 1: expected: block <name> [uninitialized]",
            ),
            (
                "block \u{3000}Ä\u{2028}x\nblock Ä\n",
                "netlist line 1: expected: block <name> [uninitialized]",
            ),
            (
                "block A\nchannel A ->\n",
                "netlist line 2: expected: channel <from> -> <to> [rs=<n>] [q=<n>]",
            ),
            (
                "block A\nchannel A -> B frob=1\nblock B\n",
                r#"netlist line 2: unknown channel attribute KeyVal("frob", "1")"#,
            ),
            (
                "channel \"q\\\\\" -> B x\n",
                r#"netlist line 1: unknown channel attribute Word("x")"#,
            ),
            (
                "channel A -> B rs=1 -> C\n",
                "netlist line 1: unknown channel attribute Arrow",
            ),
            (
                "block A\nblock B\nchannel A -> B rs=1 q=2 rs=\n",
                r#"netlist line 3: rs wants a nonnegative integer, got """#,
            ),
            (
                "block A\nblock B\nchannel A -> B q=-1\n",
                r#"netlist line 3: q wants a positive integer, got "-1""#,
            ),
            (
                "block \"a\\x\"\n",
                "netlist line 1: invalid escape Some('x') in quoted name",
            ),
            (
                "block \"a\\",
                "netlist line 1: invalid escape None in quoted name",
            ),
            (
                "block \"a\\\"\n",
                "netlist line 1: unterminated quoted name",
            ),
        ];
        for (text, expected) in cases {
            assert_eq!(parse_netlist(text).unwrap_err().to_string(), expected);
        }
        // A quoted keyword is still the keyword.
        assert_eq!(parse_netlist("\"block\" A\n").unwrap().block_count(), 1);
    }

    #[test]
    fn error_message_carries_the_offending_line_number() {
        // The server surfaces these messages verbatim in 400 responses, so
        // the rendered string — not just the struct field — must name the
        // line the user has to fix.
        let e = parse_netlist("block A\nblock B\nchannel A -> B rs=oops\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(
            e.to_string().contains("netlist line 3"),
            "rendered error {:?} does not name line 3",
            e.to_string()
        );
    }

    #[test]
    fn queue_capacities_past_the_cap_are_refused_on_their_line() {
        let channel =
            |q: &str| format!("block A\nblock B\nchannel A -> B rs=1\nchannel B -> A q={q}\n");
        let sys = parse_netlist(&channel(&MAX_CAPACITY.to_string())).unwrap();
        assert_eq!(sys.queue_capacity(ChannelId::new(1)), MAX_CAPACITY);
        // Past the cap, up to u64::MAX and 2^62, where `den·m` would
        // overflow the solvers' i64 arithmetic.
        for q in [MAX_CAPACITY + 1, 1 << 62, 1 << 63, u64::MAX] {
            let e = parse_netlist(&channel(&q.to_string())).unwrap_err();
            assert_eq!(e.line, 4, "q={q}");
            assert_eq!(
                e.to_string(),
                format!("netlist line 4: queue capacity {q} exceeds the cap of 1000000")
            );
        }
    }

    #[test]
    fn relay_stations_past_the_total_cap_are_refused_on_the_line_that_passes_it() {
        let half = MAX_RELAY_STATIONS / 2;
        let text =
            format!("block A\nblock B\nchannel A -> B rs={half}\nchannel B -> A rs={half}\n");
        assert_eq!(
            parse_netlist(&text).unwrap().relay_station_count() as u64,
            MAX_RELAY_STATIONS
        );
        let e = parse_netlist(&format!("{text}channel A -> B rs=1\n")).unwrap_err();
        assert_eq!(e.line, 5);
        assert_eq!(
            e.to_string(),
            "netlist line 5: 65537 relay stations exceed the netlist's cap of 65536"
        );
        // One channel alone, as in a 60-byte netlist asking for millions.
        let e = parse_netlist("block A\nblock B\nchannel A -> B rs=8000000\n").unwrap_err();
        assert_eq!(e.line, 3);
        // A repeated `rs=` replaces the count rather than adding to it.
        let sys = parse_netlist(&format!(
            "block A\nblock B\nchannel A -> B rs={MAX_RELAY_STATIONS} rs=1\n"
        ))
        .unwrap();
        assert_eq!(sys.relay_station_count(), 1);
    }

    #[test]
    fn uninitialized_blocks_round_trip() {
        let text = "block A\nblock X uninitialized\nchannel A -> X q=2\n";
        let sys = parse_netlist(text).unwrap();
        assert!(sys.is_initialized(crate::system::BlockId::new(0)));
        assert!(!sys.is_initialized(crate::system::BlockId::new(1)));
        let round = parse_netlist(&to_netlist(&sys)).unwrap();
        assert!(!round.is_initialized(crate::system::BlockId::new(1)));
    }

    #[test]
    fn comments_and_blank_lines() {
        let sys = parse_netlist("\n  # nothing\nblock A # trailing\n\n").unwrap();
        assert_eq!(sys.block_count(), 1);
    }
}
