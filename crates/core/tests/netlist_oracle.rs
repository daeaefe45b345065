//! Differential test of `parse_netlist` against the line-at-a-time parser
//! it replaced, kept below verbatim as `oracle_parse` (only its name and
//! the crate paths changed).
//!
//! Seeded mutations of the figure netlists and of `lis-gen` netlists must
//! give the same `Ok` system (same `to_netlist`, canonical hash and
//! initialized flags) or the same rendered `Err` from both parsers.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};

use lis_core::{
    canonical_hash, expand_block_latency, figures, parse_netlist, to_netlist, BlockId, LisSystem,
    ParseNetlistError,
};
use lis_gen::{generate, GeneratorConfig, InsertionPolicy};
use rand::SeedableRng;

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
fn oracle_parse(text: &str) -> Result<LisSystem, ParseNetlistError> {
    let mut sys = LisSystem::new();
    let mut blocks: HashMap<Cow<'_, str>, lis_core::BlockId> = HashMap::new();
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

/// A splitmix64 stream: the mutation schedule is a pure function of the
/// seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A random char boundary of `text`.
    fn boundary(&mut self, text: &str) -> usize {
        let mut at = self.below(text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        at
    }
}

/// Fragments worth splicing in: the tokenizer's special characters, the
/// Unicode whitespace `str::trim_start` knows (ideographic space, line
/// separator, next line, vertical tab) and the keywords.
const INSERTS: &[&str] = &[
    "\"",
    "\\",
    "->",
    "=",
    "#",
    "\u{3000}",
    "\u{2028}",
    "\u{85}",
    "\r\n",
    "\r",
    "\t",
    "\x0b",
    " ",
    "\n",
    "-",
    ">",
    "rs=",
    "q=",
    "q=0",
    "rs=x",
    "block ",
    "channel ",
    " uninitialized",
    "\"block\"",
    "\\\"",
    "\\\\",
    "Ä",
];

/// Applies one seeded mutation to `text`.
fn mutate(text: &str, rng: &mut Mix) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    match rng.below(8) {
        // Byte flip (invalid UTF-8 becomes U+FFFD).
        0 if !text.is_empty() => {
            let mut bytes = text.as_bytes().to_vec();
            let i = rng.below(bytes.len());
            bytes[i] ^= 1 << rng.below(8);
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Swap two lines.
        1 if lines.len() > 1 => {
            let (i, j) = (rng.below(lines.len()), rng.below(lines.len()));
            lines.swap(i, j);
            lines.join("\n")
        }
        // CRLF line endings throughout.
        2 => text.replace('\n', "\r\n"),
        // Tabs for spaces on one line.
        3 if !lines.is_empty() => {
            let i = rng.below(lines.len());
            lines[i] = lines[i].replace(' ', "\t");
            lines.join("\n")
        }
        // Duplicate a line: a duplicate block, or a parallel channel.
        4 if !lines.is_empty() => {
            let line = lines[rng.below(lines.len())].clone();
            lines.insert(rng.below(lines.len() + 1), line);
            lines.join("\n")
        }
        // Replace one word: an undeclared name, or a quoted one with
        // escapes or spaces.
        5 if !lines.is_empty() => {
            let i = rng.below(lines.len());
            let fresh = ["ghost", "\"gh\\\"ost\"", "\"a b\"", "\"\\\\\""][rng.below(4)];
            let mut words: Vec<&str> = lines[i].split(' ').collect();
            let w = rng.below(words.len());
            words[w] = fresh;
            lines[i] = words.join(" ");
            lines.join("\n")
        }
        // Cut the text short.
        6 => text[..rng.boundary(text)].to_string(),
        // Insert a fragment.
        _ => {
            let at = rng.boundary(text);
            let frag = INSERTS[rng.below(INSERTS.len())];
            format!("{}{frag}{}", &text[..at], &text[at..])
        }
    }
}

/// What both parsers must agree on.
#[derive(Debug, PartialEq)]
enum Outcome {
    Parsed {
        netlist: String,
        hash: u64,
        initialized: Vec<bool>,
    },
    Failed(String, ParseNetlistError),
}

fn outcome(parsed: Result<LisSystem, ParseNetlistError>) -> Outcome {
    match parsed {
        Ok(sys) => Outcome::Parsed {
            netlist: to_netlist(&sys),
            hash: canonical_hash(&sys),
            initialized: sys.block_ids().map(|b| sys.is_initialized(b)).collect(),
        },
        Err(e) => Outcome::Failed(e.to_string(), e),
    }
}

/// The figure netlists, a few hand-written edge cases, and seeded
/// `lis-gen` designs shaped like the `cold-solve` benchmark's.
fn corpus() -> Vec<String> {
    let mut systems = vec![
        figures::fig1().0,
        figures::fig2_right().0,
        figures::fig6().0,
        figures::fig15().0,
        figures::fig2_family(2),
        figures::uplink_downlink().0,
        expand_block_latency(&figures::fig1().0, BlockId::new(1), 3).system,
        lis_gen::ring(12).system,
        lis_gen::reconvergent(3).system,
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    for vertices in [16, 40, 64] {
        let cfg = GeneratorConfig {
            vertices,
            sccs: (vertices / 16).max(2),
            min_cycles_per_scc: 3,
            relay_stations: 4,
            reconvergent_paths: true,
            policy: InsertionPolicy::Scc,
            extra_inter_edges: None,
        };
        systems.push(generate(&cfg, &mut rng).system);
    }
    let mut texts: Vec<String> = systems.iter().map(to_netlist).collect();
    texts.extend(
        [
            "block \"A -> B \\\" x\"\nblock plain\nchannel plain -> \"A -> B \\\" x\" rs=2 q=3\n",
            "channel a->b\r\nblock a # c\r\nblock b uninitialized\r\n",
            "\"block\" \"channel\"\n\"channel\" \"channel\" -> \"channel\" q=2\n",
            "block tx-filter\nblock fft-in\nchannel fft-in -> tx-filter rs=1\n",
            "block \u{3000}Ä\u{2028}x\nblock Ä\n",
            "block a\u{85}\nblock b\nchannel a -> b rs=1 q=2 rs=3\n",
            "block \"a\\\r\nblock b\n",
            "block \"a\\\r",
            "block \"a\r\"\r\nblock \"b\u{2028}\"\n\n\n",
        ]
        .map(String::from),
    );
    texts
}

#[test]
fn the_parser_matches_the_oracle_on_seeded_mutations() {
    let mut rng = Mix(0x5eed_2021);
    let (mut parsed, mut failed) = (0, 0);
    let mut kinds = BTreeSet::new();
    for base in corpus() {
        let mut check = |text: &str| {
            let expected = outcome(oracle_parse(text));
            assert_eq!(outcome(parse_netlist(text)), expected, "input {text:?}");
            match expected {
                Outcome::Parsed { .. } => parsed += 1,
                Outcome::Failed(_, e) => {
                    failed += 1;
                    kinds.insert(e.message.split(['"', '\'']).next().map(str::to_string));
                }
            }
        };
        check(&base);
        for _ in 0..150 {
            let mut text = mutate(&base, &mut rng);
            for _ in 0..rng.below(3) {
                text = mutate(&text, &mut rng);
            }
            check(&text);
        }
    }
    // The mutations reach both outcomes and most kinds of error.
    assert!(
        parsed > 300 && failed > 300,
        "{parsed} parsed, {failed} failed"
    );
    assert!(kinds.len() >= 10, "{kinds:?}");
}
