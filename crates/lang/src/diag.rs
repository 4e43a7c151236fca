//! Source locations and diagnostics.

use std::fmt;

/// A half-open byte range in the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Span {
    /// First byte.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
}

impl Span {
    /// Creates a span.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// `(line, column)` of the span start (1-based) within `source`.
    pub fn line_col(&self, source: &str) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for (i, c) in source.char_indices() {
            if i >= self.start {
                break;
            }
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }
}

/// The compiler pass a diagnostic originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Lexical analysis.
    Lex,
    /// Parsing.
    Parse,
    /// Type inference.
    Type,
    /// Skeleton expansion: compiling the typed program to skeletons.
    Expand,
    /// Evaluation (sequential emulation).
    Eval,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Lex => write!(f, "lexical error"),
            Stage::Parse => write!(f, "parse error"),
            Stage::Type => write!(f, "type error"),
            Stage::Expand => write!(f, "expansion error"),
            Stage::Eval => write!(f, "evaluation error"),
        }
    }
}

/// A located compiler diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Originating pass.
    pub stage: Stage,
    /// Error message (lowercase, no trailing punctuation).
    pub message: String,
    /// Location in the source, when known.
    pub span: Option<Span>,
}

impl Diagnostic {
    /// Creates a located diagnostic.
    pub fn new(stage: Stage, message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            stage,
            message: message.into(),
            span: Some(span),
        }
    }

    /// Creates a diagnostic with no location.
    pub fn global(stage: Stage, message: impl Into<String>) -> Self {
        Diagnostic {
            stage,
            message: message.into(),
            span: None,
        }
    }

    /// Renders the diagnostic with `line:col` resolved against `source`.
    pub fn render(&self, source: &str) -> String {
        match self.span {
            Some(span) => {
                let (line, col) = span.line_col(source);
                format!("{}:{}: {}: {}", line, col, self.stage, self.message)
            }
            None => format!("{}: {}", self.stage, self.message),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(s) => write!(
                f,
                "{} at {}..{}: {}",
                self.stage, s.start, s.end, self.message
            ),
            None => write!(f, "{}: {}", self.stage, self.message),
        }
    }
}

impl std::error::Error for Diagnostic {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_covers_both() {
        let a = Span::new(3, 7);
        let b = Span::new(5, 12);
        assert_eq!(a.merge(b), Span::new(3, 12));
    }

    #[test]
    fn line_col_counts_newlines() {
        let src = "let a = 1;;\nlet b = 2;;";
        let span = Span::new(16, 17); // the 'b'
        assert_eq!(span.line_col(src), (2, 5));
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
    }

    #[test]
    fn render_includes_position() {
        let src = "let x = @;;";
        let d = Diagnostic::new(Stage::Lex, "unexpected character `@`", Span::new(8, 9));
        assert_eq!(
            d.render(src),
            "1:9: lexical error: unexpected character `@`"
        );
    }

    #[test]
    fn display_without_span() {
        let d = Diagnostic::global(Stage::Type, "main is not defined");
        assert_eq!(d.to_string(), "type error: main is not defined");
    }
}
