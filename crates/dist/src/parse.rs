//! A text format for linked-resource (distributed) systems, extending
//! the single-system DSL of [`twca_model::parse_system`].
//!
//! # Grammar
//!
//! ```text
//! document := (resource | link)*
//! resource := "resource" NAME "{" <system DSL> "}"
//! link     := "link" NAME "/" NAME "->" NAME "/" NAME
//! ```
//!
//! `#` starts a line comment. The body of a `resource` block is the
//! unmodified chain-system DSL. Every malformed input — unbalanced
//! braces, dangling link endpoints, duplicate resources, bad chain
//! bodies — is reported as a typed [`DistError`] (never a panic), with
//! the line number of the offense where the distributed layer detects
//! it.
//!
//! # Examples
//!
//! ```
//! use twca_dist::parse_distributed;
//!
//! # fn main() -> Result<(), twca_dist::DistError> {
//! let dist = parse_distributed(
//!     "# a two-ECU pipeline
//!      resource ecu0 {
//!          chain c periodic=100 deadline=100 sync { task t prio=1 wcet=10 }
//!      }
//!      resource ecu1 {
//!          chain d periodic=100 deadline=150 sync { task u prio=1 wcet=15 }
//!      }
//!      link ecu0/c -> ecu1/d",
//! )?;
//! assert_eq!(dist.resources().len(), 2);
//! assert_eq!(dist.links().len(), 1);
//! # Ok(())
//! # }
//! ```

use crate::error::DistError;
use crate::system::{DistributedSystem, DistributedSystemBuilder};
use twca_model::parse_system;

/// A scanner over the comment-stripped document. It tracks byte
/// offsets only; a line number is counted when an error is built, so
/// parsing stays linear in the document.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// The 1-based line of byte offset `pos`.
    fn line_at(&self, pos: usize) -> usize {
        1 + self.text[..pos].matches('\n').count()
    }

    fn error(&self, message: impl Into<String>) -> DistError {
        DistError::Parse {
            line: self.line_at(self.pos),
            message: message.into(),
        }
    }

    fn skip_whitespace(&mut self) {
        while let Some(c) = self.text[self.pos..].chars().next() {
            if c.is_whitespace() {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
    }

    /// Reads a word: a maximal run of non-whitespace, non-brace
    /// characters.
    fn word(&mut self) -> Option<&'a str> {
        self.skip_whitespace();
        let start = self.pos;
        while let Some(c) = self.text[self.pos..].chars().next() {
            if c.is_whitespace() || c == '{' || c == '}' {
                break;
            }
            self.pos += c.len_utf8();
        }
        (self.pos > start).then(|| &self.text[start..self.pos])
    }

    /// Consumes the brace-balanced block after a `resource` header and
    /// returns its inner text.
    fn block(&mut self) -> Result<&'a str, DistError> {
        self.skip_whitespace();
        if !self.text[self.pos..].starts_with('{') {
            return Err(self.error("expected `{` after the resource name"));
        }
        self.pos += 1;
        let start = self.pos;
        let mut depth = 1usize;
        for (offset, c) in self.text[start..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        let inner = &self.text[start..start + offset];
                        self.pos = start + offset + 1;
                        return Ok(inner);
                    }
                }
                _ => {}
            }
        }
        self.pos = self.text.len();
        Err(self.error("unbalanced `{` in resource block"))
    }
}

/// Replaces `#`-comments by spaces, preserving offsets and newlines so
/// reported line numbers match the original document.
fn strip_comments(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.split_inclusive('\n') {
        match line.find('#') {
            Some(at) => {
                out.push_str(&line[..at]);
                for c in line[at..].chars() {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                }
            }
            None => out.push_str(line),
        }
    }
    out
}

/// Reads one `resource/chain` endpoint of a `link` declaration.
fn link_site(scanner: &mut Scanner<'_>, what: &str) -> Result<(String, String), DistError> {
    let Some(token) = scanner.word() else {
        return Err(scanner.error(format!("`link` needs a {what} site")));
    };
    let token = token.to_owned();
    let Some((resource, chain)) = token.split_once('/') else {
        return Err(scanner.error(format!("link site `{token}` is not `resource/chain`")));
    };
    if resource.is_empty() || chain.is_empty() {
        return Err(scanner.error(format!("link site `{token}` is not `resource/chain`")));
    }
    Ok((resource.to_owned(), chain.to_owned()))
}

/// Parses a linked-resource document; see the grammar above.
///
/// # Errors
///
/// * [`DistError::Parse`] for malformed documents (with the line of
///   the offense);
/// * the validation errors of [`DistributedSystemBuilder::build`]
///   (duplicate resources, dangling or doubly-fed link endpoints).
pub fn parse_distributed(text: &str) -> Result<DistributedSystem, DistError> {
    let stripped = strip_comments(text);
    let mut scanner = Scanner {
        text: &stripped,
        pos: 0,
    };
    let mut builder = DistributedSystemBuilder::new();
    let mut saw_anything = false;
    loop {
        scanner.skip_whitespace();
        if scanner.pos == scanner.text.len() {
            break;
        }
        let keyword_at = scanner.pos;
        let Some(keyword) = scanner.word() else {
            return Err(scanner.error(format!(
                "expected `resource` or `link`, found `{}`",
                &scanner.text[scanner.pos..].chars().next().unwrap_or(' ')
            )));
        };
        match keyword {
            "resource" => {
                let name = scanner
                    .word()
                    .ok_or_else(|| scanner.error("`resource` needs a name"))?
                    .to_owned();
                let body = scanner.block()?;
                let system = parse_system(body).map_err(|e| DistError::Parse {
                    line: scanner.line_at(keyword_at),
                    message: format!("resource `{name}`: {e}"),
                })?;
                builder = builder.resource(name, system);
                saw_anything = true;
            }
            "link" => {
                let from = link_site(&mut scanner, "source")?;
                let arrow = scanner
                    .word()
                    .ok_or_else(|| scanner.error("`link` needs `->` between its sites"))?;
                if arrow != "->" {
                    let arrow = arrow.to_owned();
                    return Err(scanner.error(format!("expected `->`, found `{arrow}`")));
                }
                let to = link_site(&mut scanner, "destination")?;
                builder = builder.link(from, to);
                saw_anything = true;
            }
            other => {
                return Err(
                    scanner.error(format!("expected `resource` or `link`, found `{other}`"))
                );
            }
        }
    }
    if !saw_anything {
        return Err(DistError::Parse {
            line: 1,
            message: "a distributed document needs at least one `resource`".into(),
        });
    }
    builder.build()
}

/// Renders a distributed system back into the linked-resource document
/// format accepted by [`parse_distributed`]. The same representability
/// caveats as [`twca_model::render_system`] apply to each resource body.
///
/// # Examples
///
/// ```
/// use twca_dist::{parse_distributed, render_distributed};
///
/// # fn main() -> Result<(), twca_dist::DistError> {
/// let dist = parse_distributed(
///     "resource ecu0 { chain c periodic=100 deadline=100 sync { task t prio=1 wcet=10 } }
///      resource ecu1 { chain d periodic=100 deadline=150 sync { task u prio=1 wcet=15 } }
///      link ecu0/c -> ecu1/d",
/// )?;
/// let reparsed = parse_distributed(&render_distributed(&dist))?;
/// assert_eq!(dist, reparsed);
/// # Ok(())
/// # }
/// ```
pub fn render_distributed(system: &DistributedSystem) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for resource in system.resources() {
        let _ = writeln!(out, "resource {} {{", resource.name());
        for line in twca_model::render_system(resource.system()).lines() {
            let _ = writeln!(out, "    {line}");
        }
        let _ = writeln!(out, "}}");
    }
    for link in system.links() {
        let (from_resource, from_chain) = system.site_names(link.from());
        let (to_resource, to_chain) = system.site_names(link.to());
        let _ = writeln!(
            out,
            "link {from_resource}/{from_chain} -> {to_resource}/{to_chain}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const PIPELINE: &str = "
# two ECUs
resource ecu0 {
    chain c periodic=100 deadline=100 sync { task t prio=1 wcet=10 }
}
resource ecu1 {
    chain d periodic=100 deadline=150 sync { task u prio=1 wcet=15 }
}
link ecu0/c -> ecu1/d
";

    #[test]
    fn well_formed_documents_parse() {
        let dist = parse_distributed(PIPELINE).unwrap();
        assert_eq!(dist.resources().len(), 2);
        assert_eq!(dist.links().len(), 1);
        assert!(dist.site("ecu1", "d").is_some());
    }

    #[test]
    fn malformed_documents_are_typed_errors_with_lines() {
        let unbalanced = "resource a {\n chain c periodic=10 { task t prio=1 wcet=1 }";
        match parse_distributed(unbalanced) {
            Err(DistError::Parse { line, .. }) => assert!(line >= 1),
            other => panic!("expected a parse error, got {other:?}"),
        }

        let bad_keyword = "\n\nrobot a {}";
        match parse_distributed(bad_keyword) {
            Err(DistError::Parse { line, message }) => {
                assert_eq!(line, 3);
                assert!(message.contains("robot"));
            }
            other => panic!("expected a parse error, got {other:?}"),
        }

        let bad_body = "resource a { chain broken }";
        assert!(matches!(
            parse_distributed(bad_body),
            Err(DistError::Parse { .. })
        ));

        let bad_site = "resource a { chain c periodic=10 { task t prio=1 wcet=1 } }\nlink a -> b";
        assert!(matches!(
            parse_distributed(bad_site),
            Err(DistError::Parse { line: 2, .. })
        ));

        assert!(matches!(
            parse_distributed("   # only a comment"),
            Err(DistError::Parse { .. })
        ));
    }

    #[test]
    fn builder_validation_still_applies() {
        let dangling =
            "resource a { chain c periodic=10 { task t prio=1 wcet=1 } }\nlink a/c -> ghost/d";
        assert!(matches!(
            parse_distributed(dangling),
            Err(DistError::UnknownResource { .. })
        ));
        let duplicate =
            "resource a { chain c periodic=10 { task t prio=1 wcet=1 } }\nresource a { chain c periodic=10 { task t prio=1 wcet=1 } }";
        assert!(matches!(
            parse_distributed(duplicate),
            Err(DistError::DuplicateResource { .. })
        ));
    }

    #[test]
    fn rendering_round_trips() {
        let dist = parse_distributed(PIPELINE).unwrap();
        let rendered = render_distributed(&dist);
        assert_eq!(parse_distributed(&rendered).unwrap(), dist);
        assert!(rendered.contains("link ecu0/c -> ecu1/d"));
    }

    #[test]
    fn resource_body_errors_report_the_keyword_line() {
        let text = "resource a { chain c periodic=10 { task t prio=1 wcet=1 } }\n\n  resource b {\n chain broken }";
        match parse_distributed(text) {
            Err(DistError::Parse { line, message }) => {
                assert_eq!(line, 3);
                assert!(message.starts_with("resource `b`: "), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    /// Asserts that `pass` costs under 8x as much on `doc(8 000)` as on
    /// `doc(2 000)`, with the document's link count as its second
    /// argument: linear code costs ~4x, quadratic code ~16x, so both
    /// sides have a 2x margin. Each side takes its best of five wall
    /// times; the samples alternate, so a burst of load from outside the
    /// test slows both sides instead of one.
    fn assert_linear(doc: impl Fn(usize) -> String, pass: impl Fn(&str, usize)) {
        let (small, large) = (doc(2_000), doc(8_000));
        let time = |doc: &str, links: usize| {
            let start = std::time::Instant::now();
            pass(doc, links);
            start.elapsed().as_nanos().max(1)
        };
        let (mut small_ns, mut large_ns) = (u128::MAX, u128::MAX);
        for _ in 0..5 {
            small_ns = small_ns.min(time(&small, 2_000));
            large_ns = large_ns.min(time(&large, 8_000));
        }
        assert!(
            large_ns < 8 * small_ns,
            "8 000 links took {large_ns} ns, 2 000 links {small_ns} ns"
        );
    }

    #[test]
    fn parsing_scales_linearly_in_the_number_of_links() {
        let doc = |links: usize| {
            let mut doc =
                String::from("resource a { chain c periodic=10 { task t prio=1 wcet=1 } }\n");
            for i in 0..links {
                doc.push_str(&format!("link a/c{i} -> b/d{i}\n"));
            }
            doc
        };
        assert_linear(doc, |doc, _| {
            std::hint::black_box(parse_distributed(doc).unwrap_err());
        });
    }

    #[test]
    fn building_scales_linearly_in_the_number_of_valid_links() {
        // Two resources of N one-task chains and N links `a/ci -> b/ci`:
        // every link resolves, so the builder checks each endpoint and
        // each target against all links accepted before it.
        let doc = |chains: usize| {
            let mut doc = String::new();
            for resource in ["a", "b"] {
                doc.push_str(&format!("resource {resource} {{\n"));
                for i in 0..chains {
                    doc.push_str(&format!(
                        "chain c{i} periodic=100000 {{ task t{i} prio={} wcet=1 }}\n",
                        i + 1
                    ));
                }
                doc.push_str("}\n");
            }
            for i in 0..chains {
                doc.push_str(&format!("link a/c{i} -> b/c{i}\n"));
            }
            doc
        };
        assert_linear(doc, |doc, links| {
            let dist = parse_distributed(doc).unwrap();
            assert_eq!(dist.links().len(), links);
            std::hint::black_box(dist);
        });
    }

    #[test]
    fn comments_do_not_shift_line_numbers() {
        let text = "# line 1\n# line 2\nrobot x {}";
        match parse_distributed(text) {
            Err(DistError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
}
