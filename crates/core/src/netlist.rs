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
use std::collections::HashMap;
use std::error::Error as StdError;
use std::fmt;

use crate::system::LisSystem;

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
/// with escapes needs an owned copy.
#[derive(Debug, Clone, PartialEq)]
enum Tok<'a> {
    Word(Cow<'a, str>),
    Arrow,
    KeyVal(&'a str, &'a str),
}

fn tokenize(line: &str, lineno: usize) -> Result<Vec<Tok<'_>>, ParseNetlistError> {
    let mut toks = Vec::new();
    let mut rest = line.trim_start();
    while let Some(c) = rest.chars().next() {
        match c {
            '#' => break,
            '"' => {
                let (name, tail) = quoted(&rest[1..], lineno)?;
                toks.push(Tok::Word(name));
                rest = tail;
            }
            '-' if rest[1..].starts_with('>') => {
                toks.push(Tok::Arrow);
                rest = &rest[2..];
            }
            _ => {
                let (word, tail) = rest.split_at(word_end(rest));
                toks.push(match word.split_once('=') {
                    Some((k, v)) => Tok::KeyVal(k, v),
                    None => Tok::Word(Cow::Borrowed(word)),
                });
                rest = tail;
            }
        }
        rest = rest.trim_start();
    }
    Ok(toks)
}

/// The byte length of the bare word starting `s`: it runs to whitespace, a
/// comment or an arrow (a lone `-` belongs to hyphenated names).
fn word_end(s: &str) -> usize {
    let bytes = s.as_bytes();
    s.char_indices()
        .find(|&(i, c)| {
            c.is_whitespace() || c == '#' || (c == '-' && bytes.get(i + 1) == Some(&b'>'))
        })
        .map_or(s.len(), |(i, _)| i)
}

/// Parses a quoted name whose opening quote precedes `s`, returning the name
/// and the rest of the line after the closing quote.
fn quoted(s: &str, lineno: usize) -> Result<(Cow<'_, str>, &str), ParseNetlistError> {
    match s.find(['"', '\\']) {
        Some(i) if s.as_bytes()[i] == b'"' => return Ok((Cow::Borrowed(&s[..i]), &s[i + 1..])),
        Some(_) => {}
        None => return Err(err(lineno, "unterminated quoted name")),
    }
    let mut name = String::new();
    let mut chars = s.char_indices();
    loop {
        match chars.next() {
            Some((i, '"')) => return Ok((Cow::Owned(name), &s[i + 1..])),
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

/// Parses a netlist into a [`LisSystem`].
///
/// # Errors
///
/// Returns [`ParseNetlistError`] on syntax errors, duplicate block names,
/// references to undeclared blocks, or invalid attribute values.
pub fn parse_netlist(text: &str) -> Result<LisSystem, ParseNetlistError> {
    let mut sys = LisSystem::new();
    let mut blocks: HashMap<Cow<'_, str>, crate::system::BlockId> = HashMap::new();
    // Channels may reference blocks declared later: collect first, resolve
    // at the end.
    struct PendingChannel<'a> {
        line: usize,
        from: Cow<'a, str>,
        to: Cow<'a, str>,
        rs: u32,
        q: u64,
    }
    let mut pending: Vec<PendingChannel<'_>> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let toks = tokenize(raw, lineno)?;
        if toks.is_empty() {
            continue;
        }
        match &toks[0] {
            Tok::Word(w) if w == "block" => {
                let (name, uninitialized) = match &toks[..] {
                    [_, Tok::Word(name)] => (name, false),
                    [_, Tok::Word(name), Tok::Word(attr)] if attr == "uninitialized" => {
                        (name, true)
                    }
                    _ => return Err(err(lineno, "expected: block <name> [uninitialized]")),
                };
                if blocks.contains_key(name.as_ref()) {
                    return Err(err(lineno, format!("duplicate block {name:?}")));
                }
                let id = if uninitialized {
                    sys.add_uninitialized_block(name.as_ref())
                } else {
                    sys.add_block(name.as_ref())
                };
                blocks.insert(name.clone(), id);
            }
            Tok::Word(w) if w == "channel" => {
                let (from, to, attrs) = match &toks[1..] {
                    [Tok::Word(from), Tok::Arrow, Tok::Word(to), rest @ ..] => {
                        (from.clone(), to.clone(), rest)
                    }
                    _ => {
                        return Err(err(
                            lineno,
                            "expected: channel <from> -> <to> [rs=<n>] [q=<n>]",
                        ))
                    }
                };
                let mut rs = 0u32;
                let mut q = 1u64;
                for attr in attrs {
                    match attr {
                        Tok::KeyVal("rs", v) => {
                            rs = v.parse().map_err(|_| {
                                err(lineno, format!("rs wants a nonnegative integer, got {v:?}"))
                            })?;
                        }
                        Tok::KeyVal("q", v) => {
                            q = v.parse().map_err(|_| {
                                err(lineno, format!("q wants a positive integer, got {v:?}"))
                            })?;
                            if q == 0 {
                                return Err(err(lineno, "queue capacity must be at least 1"));
                            }
                        }
                        other => {
                            return Err(err(lineno, format!("unknown channel attribute {other:?}")))
                        }
                    }
                }
                pending.push(PendingChannel {
                    line: lineno,
                    from,
                    to,
                    rs,
                    q,
                });
            }
            other => return Err(err(lineno, format!("unknown directive {other:?}"))),
        }
    }

    for p in pending {
        let from = *blocks
            .get(p.from.as_ref())
            .ok_or_else(|| err(p.line, format!("unknown block {:?}", p.from)))?;
        let to = *blocks
            .get(p.to.as_ref())
            .ok_or_else(|| err(p.line, format!("unknown block {:?}", p.to)))?;
        let c = sys.add_channel(from, to);
        for _ in 0..p.rs {
            sys.add_relay_station(c);
        }
        sys.set_queue_capacity(c, p.q)
            .expect("q validated during parsing");
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
