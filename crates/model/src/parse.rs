//! A small text format for describing systems, mirroring the notation of
//! the paper's figures.
//!
//! # Grammar
//!
//! ```text
//! system     := chain*
//! chain      := "chain" NAME attr* "{" task* "}"
//! attr       := "periodic=" INT | "sporadic=" INT
//!             | "jitter=" INT | "dmin=" INT
//!             | "burst=" INT | "inner=" INT
//!             | "deadline=" INT | "sync" | "async" | "overload"
//! task       := "task" NAME "prio=" INT "wcet=" INT
//! ```
//!
//! `#` starts a line comment. Whitespace and newlines are
//! interchangeable, and a brace is a word of its own even when glued to
//! a neighbour (`periodic=10{`). A chain needs `periodic=` or
//! `sporadic=`; `jitter=` and `dmin=` refine a periodic chain into a
//! periodic-with-jitter model, while `burst=` (burst size) and `inner=`
//! (intra-burst distance, default 1) refine it into a recurring-burst
//! model.
//!
//! # Examples
//!
//! ```
//! use twca_model::parse_system;
//!
//! # fn main() -> Result<(), twca_model::ParseError> {
//! let system = parse_system(
//!     "# the paper's sigma_c
//!      chain sigma_c periodic=200 deadline=200 sync {
//!          task tau_c1 prio=8 wcet=4
//!          task tau_c2 prio=7 wcet=6
//!          task tau_c3 prio=1 wcet=41
//!      }
//!      chain sigma_a sporadic=700 overload {
//!          task tau_a1 prio=4 wcet=10
//!          task tau_a2 prio=3 wcet=10
//!      }",
//! )?;
//! assert_eq!(system.chains().len(), 2);
//! assert_eq!(system.chains()[0].total_wcet(), 51);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;

use crate::builder::SystemBuilder;
use crate::chain::ChainKind;
use crate::error::ModelError;
use crate::system::System;
use twca_curves::{ActivationModel, Time};

/// Error raised while parsing a system description.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseError {
    /// An unexpected token was encountered.
    Unexpected {
        /// 1-based line number.
        line: usize,
        /// What was found.
        found: String,
        /// What was expected.
        expected: &'static str,
    },
    /// The input ended in the middle of a definition.
    UnexpectedEnd {
        /// What was expected.
        expected: &'static str,
    },
    /// An integer attribute failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A chain is missing an activation model.
    MissingActivation {
        /// The chain name.
        chain: String,
    },
    /// The parsed description failed semantic validation.
    Model(ModelError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Unexpected {
                line,
                found,
                expected,
            } => write!(f, "line {line}: expected {expected}, found `{found}`"),
            ParseError::UnexpectedEnd { expected } => {
                write!(f, "unexpected end of input, expected {expected}")
            }
            ParseError::BadNumber { line, text } => {
                write!(f, "line {line}: `{text}` is not a valid number")
            }
            ParseError::MissingActivation { chain } => {
                write!(f, "chain `{chain}` needs `periodic=` or `sporadic=`")
            }
            ParseError::Model(e) => write!(f, "invalid system: {e}"),
        }
    }
}

impl Error for ParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for ParseError {
    fn from(value: ModelError) -> Self {
        ParseError::Model(value)
    }
}

/// One word of the input, borrowed from it, with its 1-based line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Token<'a> {
    line: usize,
    text: &'a str,
}

/// The words of a description, produced lazily and borrowed from it. A
/// word is a run of characters that are neither whitespace (Unicode's,
/// as [`char::is_whitespace`]) nor a brace; each brace is a word of its
/// own, and `#` drops the rest of its line.
struct Tokens<'a> {
    input: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Tokens<'a> {
    fn new(input: &'a str) -> Self {
        Tokens {
            input,
            pos: 0,
            line: 1,
        }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        loop {
            let rest = &self.input[self.pos..];
            let c = rest.chars().next()?;
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                '#' => self.pos += rest.find('\n').unwrap_or(rest.len()),
                c if c.is_whitespace() => self.pos += c.len_utf8(),
                _ => {
                    let len = if matches!(c, '{' | '}') {
                        1
                    } else {
                        rest.find(|c: char| c.is_whitespace() || matches!(c, '{' | '}' | '#'))
                            .unwrap_or(rest.len())
                    };
                    self.pos += len;
                    return Some(Token {
                        line: self.line,
                        text: &rest[..len],
                    });
                }
            }
        }
    }
}

struct Parser<'a> {
    tokens: std::iter::Peekable<Tokens<'a>>,
}

impl<'a> Parser<'a> {
    fn at_end(&mut self) -> bool {
        self.tokens.peek().is_none()
    }

    fn next(&mut self, expected: &'static str) -> Result<Token<'a>, ParseError> {
        self.tokens
            .next()
            .ok_or(ParseError::UnexpectedEnd { expected })
    }

    fn expect(&mut self, literal: &'static str) -> Result<(), ParseError> {
        let t = self.next(literal)?;
        if t.text == literal {
            Ok(())
        } else {
            Err(t.unexpected(literal))
        }
    }
}

impl Token<'_> {
    /// The error of finding this token where `expected` should be.
    fn unexpected(self, expected: &'static str) -> ParseError {
        ParseError::Unexpected {
            line: self.line,
            found: self.text.to_owned(),
            expected,
        }
    }

    /// The integer after the `key_len`-byte `key=` prefix.
    fn int(self, key_len: usize) -> Result<Time, ParseError> {
        self.text[key_len..]
            .parse()
            .map_err(|_| ParseError::BadNumber {
                line: self.line,
                text: self.text.to_owned(),
            })
    }
}

/// Parses a system description in the small text format mirroring the
/// paper's figures (see the example below; `#` starts a comment, chains
/// need `periodic=`/`sporadic=`, optional `jitter=`/`dmin=`/`deadline=`/
/// `sync`/`async`/`overload` attributes, tasks list `prio=` and
/// `wcet=`).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntactic or semantic
/// problem, with a line number where applicable.
pub fn parse_system(input: &str) -> Result<System, ParseError> {
    let mut parser = Parser {
        tokens: Tokens::new(input).peekable(),
    };
    let mut builder = SystemBuilder::new();
    while !parser.at_end() {
        parser.expect("chain")?;
        let name = parser.next("chain name")?;

        let mut period: Option<Time> = None;
        let mut sporadic: Option<Time> = None;
        let mut jitter: Time = 0;
        let mut dmin: Time = 1;
        let mut has_jitter_attrs = false;
        let mut burst: Option<u64> = None;
        let mut inner: Time = 1;
        let mut deadline: Option<Time> = None;
        let mut kind = ChainKind::Synchronous;
        let mut overload = false;

        loop {
            let t = parser.next("chain attribute or `{`")?;
            match t.text {
                "{" => break,
                "sync" => kind = ChainKind::Synchronous,
                "async" => kind = ChainKind::Asynchronous,
                "overload" => overload = true,
                s if s.starts_with("periodic=") => period = Some(t.int(9)?),
                s if s.starts_with("sporadic=") => sporadic = Some(t.int(9)?),
                s if s.starts_with("deadline=") => deadline = Some(t.int(9)?),
                s if s.starts_with("jitter=") => {
                    jitter = t.int(7)?;
                    has_jitter_attrs = true;
                }
                s if s.starts_with("dmin=") => {
                    dmin = t.int(5)?;
                    has_jitter_attrs = true;
                }
                s if s.starts_with("burst=") => burst = Some(t.int(6)?),
                s if s.starts_with("inner=") => inner = t.int(6)?,
                _ => return Err(t.unexpected("chain attribute or `{`")),
            }
        }

        let activation = match (period, sporadic) {
            (Some(p), None) if burst.is_some() => {
                if has_jitter_attrs {
                    return Err(ParseError::Unexpected {
                        line: name.line,
                        found: "burst= with jitter=/dmin=".into(),
                        expected: "either a jittered or a bursty chain, not both",
                    });
                }
                let size = burst.expect("checked above");
                ActivationModel::Burst(
                    twca_curves::Burst::new(p, size, inner)
                        .map_err(|e| ParseError::Model(e.into()))?,
                )
            }
            (Some(p), None) if has_jitter_attrs => {
                ActivationModel::periodic_jitter(p, jitter, dmin)
                    .map_err(|e| ParseError::Model(e.into()))?
            }
            (Some(p), None) => {
                ActivationModel::periodic(p).map_err(|e| ParseError::Model(e.into()))?
            }
            (None, Some(d)) => {
                ActivationModel::sporadic(d).map_err(|e| ParseError::Model(e.into()))?
            }
            (Some(_), Some(_)) | (None, None) => {
                return Err(ParseError::MissingActivation {
                    chain: name.text.to_owned(),
                })
            }
        };

        let mut cb = builder.chain(name.text).activation(activation).kind(kind);
        if let Some(d) = deadline {
            cb = cb.deadline(d);
        }
        if overload {
            cb = cb.overload();
        }

        loop {
            let t = parser.next("`task` or `}`")?;
            match t.text {
                "}" => break,
                "task" => {
                    let task_name = parser.next("task name")?;
                    let prio_token = parser.next("prio=")?;
                    if !prio_token.text.starts_with("prio=") {
                        return Err(prio_token.unexpected("prio="));
                    }
                    let prio = prio_token.int(5)?;
                    let wcet_token = parser.next("wcet=")?;
                    if !wcet_token.text.starts_with("wcet=") {
                        return Err(wcet_token.unexpected("wcet="));
                    }
                    let wcet = wcet_token.int(5)?;
                    cb = cb.task(task_name.text, prio as u32, wcet);
                }
                _ => return Err(t.unexpected("`task` or `}`")),
            }
        }
        builder = cb.done();
    }
    Ok(builder.build()?)
}

/// Renders a system back into the textual format accepted by
/// [`parse_system`]. Only the model classes expressible in the format
/// (periodic, periodic+jitter, sporadic) round-trip; other activation
/// models are rendered as comments.
pub fn render_system(system: &System) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (_, chain) in system.iter() {
        let _ = write!(out, "chain {}", chain.name());
        match chain.activation() {
            ActivationModel::Periodic(p) => {
                let _ = write!(out, " periodic={}", p.period());
            }
            ActivationModel::PeriodicJitter(pj) => {
                let _ = write!(
                    out,
                    " periodic={} jitter={} dmin={}",
                    pj.period(),
                    pj.jitter(),
                    pj.min_distance()
                );
            }
            ActivationModel::Sporadic(s) => {
                let _ = write!(out, " sporadic={}", s.min_distance());
            }
            ActivationModel::Burst(b) => {
                let _ = write!(
                    out,
                    " periodic={} burst={} inner={}",
                    b.period(),
                    b.size(),
                    b.inner_distance()
                );
            }
            other => {
                let _ = write!(out, " # unrepresentable activation: {other:?}");
            }
        }
        if let Some(d) = chain.deadline() {
            let _ = write!(out, " deadline={d}");
        }
        let _ = write!(
            out,
            " {}",
            if chain.kind().is_synchronous() {
                "sync"
            } else {
                "async"
            }
        );
        if chain.is_overload() {
            let _ = write!(out, " overload");
        }
        let _ = writeln!(out, " {{");
        for task in chain.tasks() {
            let _ = writeln!(
                out,
                "    task {} prio={} wcet={}",
                task.name(),
                task.priority().level(),
                task.wcet()
            );
        }
        let _ = writeln!(out, "}}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study::case_study;

    #[test]
    fn parses_the_case_study_format() {
        let text = render_system(&case_study());
        let parsed = parse_system(&text).unwrap();
        assert_eq!(parsed, case_study());
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let s = parse_system(
            "chain x periodic=10 { # inline comment
             # whole-line comment
                 task t prio=1 wcet=2
             }",
        )
        .unwrap();
        assert_eq!(s.chains()[0].tasks()[0].wcet(), 2);
    }

    #[test]
    fn jitter_attributes_build_pjd_model() {
        let s =
            parse_system("chain x periodic=100 jitter=30 dmin=5 { task t prio=1 wcet=2 }").unwrap();
        match s.chains()[0].activation() {
            ActivationModel::PeriodicJitter(pj) => {
                assert_eq!(pj.period(), 100);
                assert_eq!(pj.jitter(), 30);
                assert_eq!(pj.min_distance(), 5);
            }
            other => panic!("unexpected model {other:?}"),
        }
    }

    #[test]
    fn burst_attributes_build_burst_model() {
        let s =
            parse_system("chain x periodic=400 burst=4 inner=5 { task t prio=1 wcet=2 }").unwrap();
        match s.chains()[0].activation() {
            ActivationModel::Burst(b) => {
                assert_eq!(b.period(), 400);
                assert_eq!(b.size(), 4);
                assert_eq!(b.inner_distance(), 5);
            }
            other => panic!("unexpected model {other:?}"),
        }
        // Round trip through render.
        let rendered = crate::render_system(&s);
        assert!(rendered.contains("periodic=400 burst=4 inner=5"));
        let reparsed = parse_system(&rendered).unwrap();
        assert_eq!(reparsed, s);
    }

    #[test]
    fn burst_and_jitter_conflict_is_reported() {
        let err = parse_system("chain x periodic=400 burst=4 jitter=10 { task t prio=1 wcet=2 }")
            .unwrap_err();
        assert!(matches!(err, ParseError::Unexpected { .. }));
    }

    #[test]
    fn async_and_overload_flags() {
        let s =
            parse_system("chain x sporadic=500 async overload { task t prio=1 wcet=2 }").unwrap();
        assert_eq!(s.chains()[0].kind(), ChainKind::Asynchronous);
        assert!(s.chains()[0].is_overload());
    }

    #[test]
    fn missing_activation_is_reported() {
        let err = parse_system("chain x deadline=5 { task t prio=1 wcet=2 }").unwrap_err();
        assert_eq!(
            err,
            ParseError::MissingActivation {
                chain: "x".to_owned()
            }
        );
    }

    #[test]
    fn conflicting_activation_is_reported() {
        let err =
            parse_system("chain x periodic=5 sporadic=7 { task t prio=1 wcet=2 }").unwrap_err();
        assert!(matches!(err, ParseError::MissingActivation { .. }));
    }

    #[test]
    fn bad_number_reports_line() {
        let err = parse_system("chain x periodic=ten {\n task t prio=1 wcet=2 }").unwrap_err();
        assert_eq!(
            err,
            ParseError::BadNumber {
                line: 1,
                text: "periodic=ten".to_owned()
            }
        );
    }

    #[test]
    fn unexpected_token_reports_expectation() {
        let err = parse_system("chains x periodic=5 { }").unwrap_err();
        assert!(matches!(
            err,
            ParseError::Unexpected {
                expected: "chain",
                ..
            }
        ));
    }

    #[test]
    fn truncated_input_is_reported() {
        let err = parse_system("chain x periodic=5 { task t prio=1").unwrap_err();
        assert_eq!(err, ParseError::UnexpectedEnd { expected: "wcet=" });
    }

    #[test]
    fn semantic_validation_propagates() {
        let err = parse_system(
            "chain x periodic=5 { task t prio=1 wcet=2 }
             chain x periodic=5 { task u prio=2 wcet=2 }",
        )
        .unwrap_err();
        assert!(matches!(err, ParseError::Model(_)));
    }

    #[test]
    fn empty_input_fails_validation() {
        assert!(matches!(parse_system(""), Err(ParseError::Model(_))));
    }

    /// The allocating tokenizer the borrowed [`Tokens`] replaced, kept
    /// as the reference it must agree with.
    fn reference_tokens(input: &str) -> Vec<(usize, String)> {
        let mut tokens = Vec::new();
        for (i, raw_line) in input.lines().enumerate() {
            let code = raw_line.split('#').next().unwrap_or("");
            let spaced = code.replace('{', " { ").replace('}', " } ");
            for word in spaced.split_whitespace() {
                tokens.push((i + 1, word.to_owned()));
            }
        }
        tokens
    }

    /// Fragments that generated descriptions are glued from: keywords,
    /// glued braces, comments after `{`, every line ending, ASCII and
    /// Unicode whitespace, and non-ASCII names.
    const FRAGMENTS: [&str; 28] = [
        "chain",
        "task",
        "periodic=10",
        "prio=1",
        "wcet=2",
        "{",
        "}",
        "periodic=10{task",
        "}}",
        "{#",
        "# c { }",
        "x#y",
        "#",
        " ",
        "\t",
        "\n",
        "\r\n",
        "\r",
        "\n\n",
        "\u{a0}",
        "\u{2003}",
        "\u{85}",
        "\u{b}",
        "\u{2028}",
        "τ_a1",
        "é{",
        "wcét=3",
        "",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn borrowed_tokens_match_the_reference_tokenizer(
            picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..60)
        ) {
            let input: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            let tokens: Vec<(usize, String)> = Tokens::new(&input)
                .map(|t| (t.line, t.text.to_owned()))
                .collect();
            proptest::prop_assert_eq!(tokens, reference_tokens(&input), "{:?}", input);
        }
    }

    #[test]
    fn parse_errors_render_as_before() {
        for (input, message) in [
            ("chains x periodic=5 { }", "line 1: expected chain, found `chains`"),
            (
                "chain x periodic=ten {\n task t prio=1 wcet=2 }",
                "line 1: `periodic=ten` is not a valid number",
            ),
            (
                "chain x deadline=5 { task t prio=1 wcet=2 }",
                "chain `x` needs `periodic=` or `sporadic=`",
            ),
            (
                "chain x periodic=5 { task t prio=1",
                "unexpected end of input, expected wcet=",
            ),
            (
                "chain x periodic=5 #{ \n { task t prio=1 wcet=2 } \n chain",
                "unexpected end of input, expected chain name",
            ),
            (
                "chain x periodic=5{task t prio=1 wcet=2}\r\n# c\r\nchain y\u{a0}sporadic=7 {\ttask u wcet=3 }",
                "line 3: expected prio=, found `wcet=3`",
            ),
            (
                "\n\nchain x periodic=5 { task t prio=1 wcet=2 } chain y periodic=5 { task u prio=x wcet=1 }",
                "line 3: `prio=x` is not a valid number",
            ),
            (
                "chain x periodic=5 {\u{2003}bogus }",
                "line 1: expected `task` or `}`, found `bogus`",
            ),
            (
                "chain x periodic=5 foo{",
                "line 1: expected chain attribute or `{`, found `foo`",
            ),
            (
                "chain τ periodic=5 { task ü prio=1 wcét=2 }",
                "line 1: expected wcet=, found `wcét=2`",
            ),
            (
                "chain x\nperiodic=400 burst=4 jitter=10 { task t prio=1 wcet=2 }",
                "line 1: expected either a jittered or a bursty chain, not both, \
                 found `burst= with jitter=/dmin=`",
            ),
        ] {
            let error = parse_system(input).unwrap_err();
            assert_eq!(error.to_string(), message, "{input:?}");
        }
    }

    #[test]
    fn display_messages_are_informative() {
        let msg = ParseError::BadNumber {
            line: 3,
            text: "wcet=x".into(),
        }
        .to_string();
        assert!(msg.contains("line 3"));
        let msg = ParseError::UnexpectedEnd { expected: "wcet=" }.to_string();
        assert!(msg.contains("wcet="));
    }
}
