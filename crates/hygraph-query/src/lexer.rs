//! HyQL tokenizer.
//!
//! Hand-rolled scanner producing position-tagged tokens. Keywords are
//! case-insensitive; identifiers, string literals (single quotes) and
//! numeric literals follow Cypher conventions.

use hygraph_types::{HyGraphError, Result};

/// One token with its byte offset.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// Byte offset in the source.
    pub offset: usize,
    /// The token kind/payload.
    pub kind: TokenKind,
}

/// Token kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// Keyword (uppercased).
    Keyword(Keyword),
    /// Identifier.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (quotes stripped).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `-`
    Dash,
    /// `->`
    ArrowRight,
    /// `<-`
    ArrowLeft,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// End of input.
    Eof,
}

/// Reserved words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Keyword {
    Match,
    Where,
    Return,
    As,
    And,
    Or,
    Not,
    OrderBy, // two-word keyword assembled by the lexer
    Limit,
    Having,
    Asc,
    Desc,
    ValidAt, // two-word
    AsOf,    // two-word ("AS OF"); an alias literally named `of` is
    // therefore reserved after AS
    Between,
    In,
    Delta,
    Mean,
    Sum,
    Min,
    Max,
    Count,
    True,
    False,
    Null,
    Distinct,
    Explain,
}

impl Keyword {
    fn parse2(first: &str, second: &str) -> Option<Keyword> {
        match (first, second) {
            ("ORDER", "BY") => Some(Keyword::OrderBy),
            ("VALID", "AT") => Some(Keyword::ValidAt),
            ("AS", "OF") => Some(Keyword::AsOf),
            _ => None,
        }
    }

    fn parse1(word: &str) -> Option<Keyword> {
        Some(match word {
            "MATCH" => Keyword::Match,
            "WHERE" => Keyword::Where,
            "RETURN" => Keyword::Return,
            "AS" => Keyword::As,
            "AND" => Keyword::And,
            "OR" => Keyword::Or,
            "NOT" => Keyword::Not,
            "LIMIT" => Keyword::Limit,
            "HAVING" => Keyword::Having,
            "BETWEEN" => Keyword::Between,
            "ASC" => Keyword::Asc,
            "DESC" => Keyword::Desc,
            "IN" => Keyword::In,
            "DELTA" => Keyword::Delta,
            "MEAN" | "AVG" => Keyword::Mean,
            "SUM" => Keyword::Sum,
            "MIN" => Keyword::Min,
            "MAX" => Keyword::Max,
            "COUNT" => Keyword::Count,
            "TRUE" => Keyword::True,
            "FALSE" => Keyword::False,
            "NULL" => Keyword::Null,
            "DISTINCT" => Keyword::Distinct,
            "EXPLAIN" => Keyword::Explain,
            _ => return None,
        })
    }
}

/// Tokenizes the full input.
pub fn tokenize(src: &str) -> Result<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;

    let err = |offset: usize, msg: &str| HyGraphError::Parse {
        offset,
        message: msg.to_owned(),
    };

    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            c if c.is_whitespace() => {
                i += 1;
            }
            '(' => {
                out.push(Token {
                    offset: start,
                    kind: TokenKind::LParen,
                });
                i += 1;
            }
            ')' => {
                out.push(Token {
                    offset: start,
                    kind: TokenKind::RParen,
                });
                i += 1;
            }
            '[' => {
                out.push(Token {
                    offset: start,
                    kind: TokenKind::LBracket,
                });
                i += 1;
            }
            ']' => {
                out.push(Token {
                    offset: start,
                    kind: TokenKind::RBracket,
                });
                i += 1;
            }
            '{' => {
                out.push(Token {
                    offset: start,
                    kind: TokenKind::LBrace,
                });
                i += 1;
            }
            '}' => {
                out.push(Token {
                    offset: start,
                    kind: TokenKind::RBrace,
                });
                i += 1;
            }
            ':' => {
                out.push(Token {
                    offset: start,
                    kind: TokenKind::Colon,
                });
                i += 1;
            }
            ',' => {
                out.push(Token {
                    offset: start,
                    kind: TokenKind::Comma,
                });
                i += 1;
            }
            '.' => {
                out.push(Token {
                    offset: start,
                    kind: TokenKind::Dot,
                });
                i += 1;
            }
            '+' => {
                out.push(Token {
                    offset: start,
                    kind: TokenKind::Plus,
                });
                i += 1;
            }
            '*' => {
                out.push(Token {
                    offset: start,
                    kind: TokenKind::Star,
                });
                i += 1;
            }
            '/' => {
                out.push(Token {
                    offset: start,
                    kind: TokenKind::Slash,
                });
                i += 1;
            }
            '=' => {
                out.push(Token {
                    offset: start,
                    kind: TokenKind::Eq,
                });
                i += 1;
            }
            '-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Token {
                        offset: start,
                        kind: TokenKind::ArrowRight,
                    });
                    i += 2;
                } else if bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit())
                    && matches!(
                        out.last().map(|t| &t.kind),
                        None | Some(
                            TokenKind::LParen
                                | TokenKind::LBracket
                                | TokenKind::Comma
                                | TokenKind::Eq
                                | TokenKind::Ne
                                | TokenKind::Lt
                                | TokenKind::Le
                                | TokenKind::Gt
                                | TokenKind::Ge
                                | TokenKind::Plus
                                | TokenKind::Star
                                | TokenKind::Slash
                                | TokenKind::Keyword(_)
                        )
                    )
                {
                    // negative number literal in value position
                    let (tok, next) = scan_number(bytes, i)?;
                    out.push(tok);
                    i = next;
                } else {
                    out.push(Token {
                        offset: start,
                        kind: TokenKind::Dash,
                    });
                    i += 1;
                }
            }
            '<' => match bytes.get(i + 1) {
                Some(b'-') => {
                    out.push(Token {
                        offset: start,
                        kind: TokenKind::ArrowLeft,
                    });
                    i += 2;
                }
                Some(b'>') => {
                    out.push(Token {
                        offset: start,
                        kind: TokenKind::Ne,
                    });
                    i += 2;
                }
                Some(b'=') => {
                    out.push(Token {
                        offset: start,
                        kind: TokenKind::Le,
                    });
                    i += 2;
                }
                _ => {
                    out.push(Token {
                        offset: start,
                        kind: TokenKind::Lt,
                    });
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token {
                        offset: start,
                        kind: TokenKind::Ge,
                    });
                    i += 2;
                } else {
                    out.push(Token {
                        offset: start,
                        kind: TokenKind::Gt,
                    });
                    i += 1;
                }
            }
            '\'' => {
                // The scan for the closing quote is byte-wise (0x27 is
                // never a UTF-8 continuation byte); the text between
                // quotes is copied as `str` slices so multi-byte
                // characters survive intact.
                let mut j = i + 1;
                let mut run = j;
                let mut s = String::new();
                loop {
                    match bytes.get(j) {
                        None => return Err(err(start, "unterminated string literal")),
                        Some(b'\'') => {
                            s.push_str(&src[run..j]);
                            // doubled quote escapes a quote
                            if bytes.get(j + 1) == Some(&b'\'') {
                                s.push('\'');
                                j += 2;
                                run = j;
                            } else {
                                j += 1;
                                break;
                            }
                        }
                        Some(_) => j += 1,
                    }
                }
                out.push(Token {
                    offset: start,
                    kind: TokenKind::Str(s),
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let (tok, next) = scan_number(bytes, i)?;
                out.push(tok);
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i + 1;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                let word = &src[i..j];
                let upper = word.to_ascii_uppercase();
                // try two-word keywords (ORDER BY / VALID AT / AS OF)
                let mut consumed = j;
                let mut kind = None;
                if upper == "ORDER" || upper == "VALID" || upper == "AS" {
                    // peek next word
                    let mut k = j;
                    while k < bytes.len() && (bytes[k] as char).is_whitespace() {
                        k += 1;
                    }
                    let mut l = k;
                    while l < bytes.len()
                        && ((bytes[l] as char).is_ascii_alphanumeric() || bytes[l] == b'_')
                    {
                        l += 1;
                    }
                    if let Some(kw) = Keyword::parse2(&upper, &src[k..l].to_ascii_uppercase()) {
                        kind = Some(TokenKind::Keyword(kw));
                        consumed = l;
                    }
                }
                let kind = kind.unwrap_or_else(|| match Keyword::parse1(&upper) {
                    Some(kw) => TokenKind::Keyword(kw),
                    None => TokenKind::Ident(word.to_owned()),
                });
                out.push(Token {
                    offset: start,
                    kind,
                });
                i = consumed;
            }
            _ => return Err(err(start, &format!("unexpected character '{c}'"))),
        }
    }
    out.push(Token {
        offset: src.len(),
        kind: TokenKind::Eof,
    });
    Ok(out)
}

fn scan_number(bytes: &[u8], start: usize) -> Result<(Token, usize)> {
    let mut j = start;
    if bytes[j] == b'-' {
        j += 1;
    }
    let int_start = j;
    while j < bytes.len() && bytes[j].is_ascii_digit() {
        j += 1;
    }
    if int_start == j {
        return Err(HyGraphError::Parse {
            offset: start,
            message: "malformed number".into(),
        });
    }
    let mut is_float = false;
    // a '.' is part of the number only if followed by a digit ("1.5"),
    // not a property access ("a.b" can't start with a digit anyway)
    if j + 1 < bytes.len() && bytes[j] == b'.' && bytes[j + 1].is_ascii_digit() {
        is_float = true;
        j += 1;
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            j += 1;
        }
    }
    let text = std::str::from_utf8(&bytes[start..j]).expect("ascii digits");
    let kind = if is_float {
        TokenKind::Float(text.parse().map_err(|_| HyGraphError::Parse {
            offset: start,
            message: "malformed float".into(),
        })?)
    } else {
        TokenKind::Int(text.parse().map_err(|_| HyGraphError::Parse {
            offset: start,
            message: "integer literal out of range".into(),
        })?)
    };
    Ok((
        Token {
            offset: start,
            kind,
        },
        j,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_pattern_tokens() {
        let ks = kinds("MATCH (u:User)-[t:TX]->(m)");
        assert_eq!(ks[0], TokenKind::Keyword(Keyword::Match));
        assert_eq!(ks[1], TokenKind::LParen);
        assert_eq!(ks[2], TokenKind::Ident("u".into()));
        assert_eq!(ks[3], TokenKind::Colon);
        assert!(ks.contains(&TokenKind::ArrowRight));
        assert_eq!(*ks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(kinds("match")[0], TokenKind::Keyword(Keyword::Match));
        assert_eq!(kinds("Match")[0], TokenKind::Keyword(Keyword::Match));
        assert_eq!(kinds("avg")[0], TokenKind::Keyword(Keyword::Mean));
    }

    #[test]
    fn two_word_keywords() {
        assert_eq!(kinds("ORDER BY x")[0], TokenKind::Keyword(Keyword::OrderBy));
        assert_eq!(kinds("valid at 5")[0], TokenKind::Keyword(Keyword::ValidAt));
        // ORDER not followed by BY is an identifier
        assert_eq!(kinds("ORDER x")[0], TokenKind::Ident("ORDER".into()));
    }

    #[test]
    fn temporal_keywords() {
        assert_eq!(kinds("AS OF 5")[0], TokenKind::Keyword(Keyword::AsOf));
        assert_eq!(kinds("as of 5")[0], TokenKind::Keyword(Keyword::AsOf));
        assert_eq!(
            kinds("BETWEEN 1 AND 2")[0],
            TokenKind::Keyword(Keyword::Between)
        );
        // AS not followed by OF stays the alias keyword
        assert_eq!(kinds("AS n")[0], TokenKind::Keyword(Keyword::As));
        assert_eq!(kinds("AS n")[1], TokenKind::Ident("n".into()));
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(kinds("<>")[0], TokenKind::Ne);
        assert_eq!(kinds("<=")[0], TokenKind::Le);
        assert_eq!(kinds(">=")[0], TokenKind::Ge);
        assert_eq!(kinds("<")[0], TokenKind::Lt);
        let ks = kinds("a < b");
        assert_eq!(ks[1], TokenKind::Lt);
    }

    #[test]
    fn arrows_vs_minus() {
        let ks = kinds("-[x]->");
        assert_eq!(ks[0], TokenKind::Dash);
        assert_eq!(ks[4], TokenKind::ArrowRight);
        let ks = kinds("<-[x]-");
        assert_eq!(ks[0], TokenKind::ArrowLeft);
        assert_eq!(*ks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42")[0], TokenKind::Int(42));
        assert_eq!(kinds("3.5")[0], TokenKind::Float(3.5));
        // negative literal after comparison
        let ks = kinds("x > -5");
        assert_eq!(ks[2], TokenKind::Int(-5));
        // subtraction-looking context keeps the dash
        let ks = kinds("a -5"); // after ident: dash (pattern syntax)
        assert_eq!(ks[1], TokenKind::Dash);
        // float in a range bracket
        let ks = kinds("[0, 86400000)");
        assert_eq!(ks[1], TokenKind::Int(0));
        assert_eq!(ks[3], TokenKind::Int(86400000));
    }

    #[test]
    fn string_literals() {
        assert_eq!(kinds("'hello'")[0], TokenKind::Str("hello".into()));
        assert_eq!(kinds("'it''s'")[0], TokenKind::Str("it's".into()));
        assert!(matches!(
            tokenize("'open").unwrap_err(),
            HyGraphError::Parse { .. }
        ));
    }

    #[test]
    fn string_literals_keep_multibyte_text() {
        assert_eq!(
            kinds("'Zürich — 東京 it''s'")[0],
            TokenKind::Str("Zürich — 東京 it's".into())
        );
    }

    #[test]
    fn unexpected_character() {
        let err = tokenize("a ~ b").unwrap_err();
        match err {
            HyGraphError::Parse { offset, .. } => assert_eq!(offset, 2),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn full_query_smoke() {
        let ks = kinds(
            "MATCH (u:User)-[:USES]->(c) WHERE MEAN(DELTA(c) IN [0, 100)) > 500 \
             RETURN u.name AS user ORDER BY user DESC LIMIT 3",
        );
        assert!(ks.contains(&TokenKind::Keyword(Keyword::Delta)));
        assert!(ks.contains(&TokenKind::Keyword(Keyword::OrderBy)));
        assert!(ks.contains(&TokenKind::Keyword(Keyword::Limit)));
        assert!(ks.contains(&TokenKind::Keyword(Keyword::Desc)));
    }
}
