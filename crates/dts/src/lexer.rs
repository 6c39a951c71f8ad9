//! The DTS lexer.

use std::borrow::Cow;

use crate::error::{DtsError, Position};

/// A lexical token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token<'a> {
    pub(crate) kind: TokenKind<'a>,
    pub(crate) at: Position,
}

/// Token kinds of the DTS grammar subset used by the paper. The text a
/// token carries borrows the main file's source; a token of an
/// `/include/`d file, or a string with escapes, owns its text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TokenKind<'a> {
    /// `/dts-v1/` version tag.
    DtsV1,
    /// `/include/` directive keyword.
    Include,
    /// `/delete-node/` directive keyword.
    DeleteNode,
    /// `/delete-property/` directive keyword.
    DeleteProperty,
    /// `/memreserve/` directive keyword.
    MemReserve,
    /// A name: node names (possibly with `@unit`), property names
    /// (possibly with `#`, `-`, `,`, `.`), label names.
    Ident(Cow<'a, str>),
    /// `&label` reference.
    Ref(Cow<'a, str>),
    /// A quoted string literal (unescaped contents).
    Str(Cow<'a, str>),
    /// An integer literal inside a cell list.
    Num(u64),
    /// A bare run of hex digits inside `[ … ]`, kept verbatim so the
    /// parser sees the full lexeme width (`[ 0011 ]` is two bytes, not
    /// the number 0x11).
    HexRun(Cow<'a, str>),
    /// `label:` — the ident plus the colon.
    Label(Cow<'a, str>),
    LBrace,
    RBrace,
    Lt,
    Gt,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Eq,
    /// `/` — the root node name.
    Slash,
    Eof,
}

impl TokenKind<'_> {
    pub(crate) fn describe(&self) -> String {
        match self {
            TokenKind::DtsV1 => "'/dts-v1/'".into(),
            TokenKind::Include => "'/include/'".into(),
            TokenKind::DeleteNode => "'/delete-node/'".into(),
            TokenKind::DeleteProperty => "'/delete-property/'".into(),
            TokenKind::MemReserve => "'/memreserve/'".into(),
            TokenKind::Ident(s) => format!("identifier {s:?}"),
            TokenKind::Ref(s) => format!("reference &{s}"),
            TokenKind::Str(s) => format!("string {s:?}"),
            TokenKind::Num(n) => format!("number {n:#x}"),
            TokenKind::HexRun(s) => format!("byte string run {s:?}"),
            TokenKind::Label(s) => format!("label {s}:"),
            TokenKind::LBrace => "'{'".into(),
            TokenKind::RBrace => "'}'".into(),
            TokenKind::Lt => "'<'".into(),
            TokenKind::Gt => "'>'".into(),
            TokenKind::LBracket => "'['".into(),
            TokenKind::RBracket => "']'".into(),
            TokenKind::Semi => "';'".into(),
            TokenKind::Comma => "','".into(),
            TokenKind::Eq => "'='".into(),
            TokenKind::Slash => "'/'".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

pub(crate) struct Lexer<'a> {
    /// The text being lexed: borrowed for the main file, owned for an
    /// `/include/`d one.
    src: Cow<'a, str>,
    pos: usize,
    line: u32,
    /// Byte offset at which the current line starts. A column is the
    /// distance from it, so only a newline needs bookkeeping.
    line_start: usize,
    /// Inside `[ … ]` byte strings, bare tokens are hex bytes.
    hex_mode: bool,
}

/// Characters permitted inside node/property names. The DeviceTree spec
/// allows `a-zA-Z0-9,._+-` for property names and additionally `@` (unit
/// address separator) and `#` in common practice.
fn is_name_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b',' | b'.' | b'_' | b'+' | b'-' | b'@' | b'#' | b'?')
}

/// The suffixes dtc allows after an integer literal.
fn is_int_suffix(s: &[u8]) -> bool {
    matches!(s, b"" | b"U" | b"L" | b"UL" | b"LL" | b"ULL")
}

/// The token for a run of name characters outside a byte string.
///
/// Integer literals read as dtc reads them (`strtoull(text, 0)`): `0x`
/// or `0X` then hex digits, `0` then octal digits, or decimal digits,
/// each optionally followed by `U`, `L`, `UL`, `LL` or `ULL`. A run
/// that starts like a hex literal but is not one, an octal literal with
/// an `8` or `9`, and a value past 64 bits are malformed numbers. Any
/// other run that is not digits plus a suffix is a name.
fn word(text: Cow<'_, str>, at: Position) -> Result<TokenKind<'_>, DtsError> {
    let b = text.as_bytes();
    let (radix, digits, suffix) = if let [b'0', b'x' | b'X', rest @ ..] = b {
        let n = rest.iter().take_while(|c| c.is_ascii_hexdigit()).count();
        (16, &rest[..n], &rest[n..])
    } else {
        let n = b.iter().take_while(|c| c.is_ascii_digit()).count();
        if n == 0 || !is_int_suffix(&b[n..]) {
            return Ok(TokenKind::Ident(text));
        }
        if n > 1 && b[0] == b'0' {
            (8, &b[1..n], &b[n..])
        } else {
            (10, &b[..n], &b[n..])
        }
    };
    let value = if digits.is_empty() || !is_int_suffix(suffix) {
        None
    } else {
        digits.iter().try_fold(0u64, |acc, &c| {
            let d = char::from(c).to_digit(radix)?;
            acc.checked_mul(u64::from(radix))?.checked_add(u64::from(d))
        })
    };
    value
        .map(TokenKind::Num)
        .ok_or_else(|| DtsError::BadNumber {
            at,
            text: text.into_owned(),
        })
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: impl Into<Cow<'a, str>>) -> Lexer<'a> {
        Lexer {
            src: src.into(),
            pos: 0,
            line: 1,
            line_start: 0,
            hex_mode: false,
        }
    }

    /// The source text in `range`: a slice of the main file's text, or a
    /// copy of an included file's.
    fn text(&self, range: std::ops::Range<usize>) -> Cow<'a, str> {
        match &self.src {
            Cow::Borrowed(src) => Cow::Borrowed(src.get(range).unwrap_or_default()),
            Cow::Owned(src) => Cow::Owned(src.get(range).unwrap_or_default().to_owned()),
        }
    }

    fn here(&self) -> Position {
        let column = u32::try_from(self.pos - self.line_start + 1).unwrap_or(u32::MAX);
        Position::new(self.line, column)
    }

    fn skip_trivia(&mut self) -> Result<(), DtsError> {
        loop {
            let src = self.src.as_bytes();
            match src.get(self.pos) {
                Some(b'\n') => {
                    self.pos += 1;
                    self.line = self.line.saturating_add(1);
                    self.line_start = self.pos;
                }
                Some(c) if c.is_ascii_whitespace() => self.pos += 1,
                Some(b'/') if src.get(self.pos + 1) == Some(&b'/') => {
                    // Up to, not over, the newline.
                    self.pos = src[self.pos..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .map_or(src.len(), |n| self.pos + n);
                }
                Some(b'/') if src.get(self.pos + 1) == Some(&b'*') => {
                    let at = self.here();
                    let body = self.pos + 2;
                    let Some(len) = src[body..].windows(2).position(|w| w == b"*/") else {
                        return Err(DtsError::Unterminated {
                            at,
                            what: "comment",
                        });
                    };
                    let end = body + len + 2;
                    let comment = &src[body..end];
                    if let Some(last) = comment.iter().rposition(|&c| c == b'\n') {
                        let lines = comment.iter().filter(|&&c| c == b'\n').count();
                        let lines = u32::try_from(lines).unwrap_or(u32::MAX);
                        self.line = self.line.saturating_add(lines);
                        self.line_start = body + last + 1;
                    }
                    self.pos = end;
                }
                _ => return Ok(()),
            }
        }
    }

    /// Lexes a string literal; an escape-free one is the source text.
    fn lex_string(&mut self) -> Result<TokenKind<'a>, DtsError> {
        let at = self.here();
        let unterminated = DtsError::Unterminated { at, what: "string" };
        let src: &str = &self.src;
        let start = self.pos + 1; // past the opening quote
        let mut pos = start;
        let mut out: Option<String> = None;
        // Start of the text not yet copied to `out`. Every stop below is
        // at an ASCII byte, so each slice falls on character boundaries.
        let mut run = pos;
        loop {
            match src.as_bytes().get(pos) {
                None => return Err(unterminated),
                Some(b'"') => {
                    self.pos = pos + 1;
                    return Ok(TokenKind::Str(match out {
                        Some(mut out) => {
                            out.push_str(&src[run..pos]);
                            Cow::Owned(out)
                        }
                        None => self.text(start..pos),
                    }));
                }
                Some(b'\n') => {
                    pos += 1;
                    self.line = self.line.saturating_add(1);
                    self.line_start = pos;
                }
                Some(b'\\') => {
                    let out = out.get_or_insert_with(String::new);
                    out.push_str(&src[run..pos]);
                    pos += 1;
                    let Some(c) = src[pos..].chars().next() else {
                        return Err(unterminated);
                    };
                    pos += c.len_utf8();
                    if c == '\n' {
                        self.line = self.line.saturating_add(1);
                        self.line_start = pos;
                    }
                    out.push(match c {
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        '0' => '\0',
                        c => c,
                    });
                    run = pos;
                }
                Some(_) => pos += 1,
            }
        }
    }

    /// The end of the run of name characters starting at `self.pos`.
    fn name_end(&self) -> usize {
        let src = self.src.as_bytes();
        src[self.pos..]
            .iter()
            .position(|&c| !is_name_char(c))
            .map_or(src.len(), |n| self.pos + n)
    }

    fn lex_number_or_name(&mut self) -> Result<TokenKind<'a>, DtsError> {
        let at = self.here();
        let start = self.pos;
        self.pos = self.name_end();
        // Name characters are ASCII, so the run is a `str` slice.
        let text = self.text(start..self.pos);
        // Inside byte strings every bare token is a raw hex-digit run;
        // keep the lexeme verbatim so leading zero bytes survive.
        if self.hex_mode {
            if text.bytes().all(|c| c.is_ascii_hexdigit()) {
                return Ok(TokenKind::HexRun(text));
            }
            return Err(DtsError::BadNumber {
                at,
                text: text.into_owned(),
            });
        }
        // A label is a plain identifier immediately followed by ':'.
        if self.src.as_bytes().get(self.pos) == Some(&b':') && !text.contains('@') {
            self.pos += 1;
            return Ok(TokenKind::Label(text));
        }
        word(text, at)
    }

    pub(crate) fn next_token(&mut self) -> Result<Token<'a>, DtsError> {
        self.skip_trivia()?;
        let at = self.here();
        let Some(&c) = self.src.as_bytes().get(self.pos) else {
            return Ok(Token {
                kind: TokenKind::Eof,
                at,
            });
        };
        let kind = match c {
            b'{' => self.single(TokenKind::LBrace),
            b'}' => self.single(TokenKind::RBrace),
            b'<' => self.single(TokenKind::Lt),
            b'>' => self.single(TokenKind::Gt),
            b'[' => {
                self.hex_mode = true;
                self.single(TokenKind::LBracket)
            }
            b']' => {
                self.hex_mode = false;
                self.single(TokenKind::RBracket)
            }
            b';' => self.single(TokenKind::Semi),
            b',' => self.single(TokenKind::Comma),
            b'=' => self.single(TokenKind::Eq),
            b'"' => self.lex_string()?,
            b'&' => {
                self.pos += 1;
                let start = self.pos;
                self.pos = self.name_end();
                if self.pos == start {
                    return Err(DtsError::Lex { at, found: '&' });
                }
                TokenKind::Ref(self.text(start..self.pos))
            }
            b'/' => self.lex_slash(),
            c if is_name_char(c) => self.lex_number_or_name()?,
            c => {
                return Err(DtsError::Lex {
                    at,
                    found: char::from(c),
                })
            }
        };
        Ok(Token { kind, at })
    }

    /// Steps over a one-byte token.
    fn single(&mut self, kind: TokenKind<'a>) -> TokenKind<'a> {
        self.pos += 1;
        kind
    }

    /// Either a directive `/word/` or the bare root name `/`.
    fn lex_slash(&mut self) -> TokenKind<'a> {
        const DIRECTIVES: [(&[u8], TokenKind<'static>); 5] = [
            (b"/dts-v1/", TokenKind::DtsV1),
            (b"/include/", TokenKind::Include),
            (b"/delete-node/", TokenKind::DeleteNode),
            (b"/delete-property/", TokenKind::DeleteProperty),
            (b"/memreserve/", TokenKind::MemReserve),
        ];
        let rest = &self.src.as_bytes()[self.pos..];
        for (word, kind) in DIRECTIVES {
            if rest.starts_with(word) {
                self.pos += word.len();
                return kind;
            }
        }
        self.pos += 1;
        TokenKind::Slash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `src` up to and including `Eof`, or the first error.
    fn lex(src: &str) -> Result<Vec<Token<'_>>, DtsError> {
        let mut lexer = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = lexer.next_token()?;
            let done = t.kind == TokenKind::Eof;
            out.push(t);
            if done {
                return Ok(out);
            }
        }
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        use TokenKind::*;
        assert_eq!(
            kinds("/dts-v1/; / { };"),
            vec![DtsV1, Semi, Slash, LBrace, RBrace, Semi, Eof]
        );
    }

    #[test]
    fn node_with_unit_address() {
        let k = kinds("memory@40000000 { };");
        assert_eq!(k[0], TokenKind::Ident("memory@40000000".into()));
    }

    #[test]
    fn property_names_with_hash() {
        let k = kinds("#address-cells = <2>;");
        assert_eq!(k[0], TokenKind::Ident("#address-cells".into()));
        assert_eq!(k[1], TokenKind::Eq);
        assert_eq!(k[2], TokenKind::Lt);
        assert_eq!(k[3], TokenKind::Num(2));
        assert_eq!(k[4], TokenKind::Gt);
    }

    #[test]
    fn numbers_hex_and_dec() {
        assert_eq!(kinds("<0x40000000 12>")[1], TokenKind::Num(0x4000_0000));
        assert_eq!(kinds("<0x40000000 12>")[2], TokenKind::Num(12));
    }

    /// The one token of `src`, or its lexical error.
    fn one(src: &str) -> Result<TokenKind<'_>, DtsError> {
        Lexer::new(src).next_token().map(|t| t.kind)
    }

    #[test]
    fn leading_zero_reads_octal() {
        assert_eq!(one("010"), Ok(TokenKind::Num(8)));
        assert_eq!(one("0777"), Ok(TokenKind::Num(0o777)));
        assert_eq!(one("00"), Ok(TokenKind::Num(0)));
        assert_eq!(one("0"), Ok(TokenKind::Num(0)));
    }

    #[test]
    fn octal_literal_rejects_eight_and_nine() {
        for src in ["08", "019", "09U"] {
            assert!(matches!(one(src), Err(DtsError::BadNumber { .. })), "{src}");
        }
    }

    #[test]
    fn decimal_literal() {
        assert_eq!(one("12"), Ok(TokenKind::Num(12)));
        assert_eq!(one("18446744073709551615"), Ok(TokenKind::Num(u64::MAX)));
        assert!(matches!(
            one("18446744073709551616"),
            Err(DtsError::BadNumber { .. })
        ));
    }

    #[test]
    fn hex_literal() {
        assert_eq!(one("0x1f"), Ok(TokenKind::Num(0x1f)));
        assert_eq!(one("0XAb"), Ok(TokenKind::Num(0xab)));
        assert_eq!(one("0xffffffffffffffff"), Ok(TokenKind::Num(u64::MAX)));
        for src in ["0x", "0x10000000000000000", "0x+10", "0x1g"] {
            assert!(matches!(one(src), Err(DtsError::BadNumber { .. })), "{src}");
        }
    }

    #[test]
    fn integer_suffixes() {
        for suffix in ["U", "L", "UL", "LL", "ULL"] {
            assert_eq!(one(&format!("16{suffix}")), Ok(TokenKind::Num(16)));
            assert_eq!(one(&format!("0x10{suffix}")), Ok(TokenKind::Num(16)));
            assert_eq!(one(&format!("020{suffix}")), Ok(TokenKind::Num(16)));
        }
        // Not a dtc suffix: a malformed hex literal, and a name otherwise.
        assert!(matches!(one("0x10LU"), Err(DtsError::BadNumber { .. })));
        assert_eq!(one("16LU"), Ok(TokenKind::Ident("16LU".into())));
        assert_eq!(one("16ul"), Ok(TokenKind::Ident("16ul".into())));
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds(r#""arm,cortex-a53""#)[0],
            TokenKind::Str("arm,cortex-a53".into())
        );
        assert_eq!(kinds(r#""a\nb""#)[0], TokenKind::Str("a\nb".into()));
    }

    #[test]
    fn labels_and_refs() {
        let k = kinds("uart0: uart@20000000 { }; &uart0 { };");
        assert_eq!(k[0], TokenKind::Label("uart0".into()));
        assert_eq!(k[1], TokenKind::Ident("uart@20000000".into()));
        assert!(k.contains(&TokenKind::Ref("uart0".into())));
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("// line\n/* block\n comment */ foo");
        assert_eq!(k[0], TokenKind::Ident("foo".into()));
    }

    #[test]
    fn directives() {
        use TokenKind::*;
        assert_eq!(
            kinds("/include/ \"cpus.dtsi\""),
            vec![Include, Str("cpus.dtsi".into()), Eof]
        );
        assert_eq!(kinds("/delete-node/ foo;")[0], DeleteNode);
        assert_eq!(kinds("/delete-property/ reg;")[0], DeleteProperty);
    }

    #[test]
    fn unterminated_string_errors() {
        let r = lex("\"abc");
        assert!(matches!(
            r,
            Err(DtsError::Unterminated { what: "string", .. })
        ));
    }

    #[test]
    fn unterminated_comment_errors() {
        let r = lex("/* abc");
        assert!(matches!(
            r,
            Err(DtsError::Unterminated {
                what: "comment",
                ..
            })
        ));
    }

    #[test]
    fn bad_number_errors() {
        let r = lex("0xzz");
        assert!(matches!(r, Err(DtsError::BadNumber { .. })));
    }

    #[test]
    fn positions_track_lines() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!(toks[0].at, Position::new(1, 1));
        assert_eq!(toks[1].at, Position::new(2, 3));
        // Newlines inside comments and strings count too, and a column
        // counts bytes.
        let toks = lex("/* x\n y */ \"a\nµ\" c // z\n\t d").unwrap();
        let at: Vec<Position> = toks.iter().map(|t| t.at).collect();
        assert_eq!(
            at,
            [(2, 7), (3, 5), (4, 3), (4, 4)].map(|(l, c)| Position::new(l, c))
        );
    }

    #[test]
    fn byte_string_brackets() {
        use TokenKind::*;
        let k = kinds("[ 12 34 ]");
        assert_eq!(k[0], LBracket);
        assert_eq!(k[1], HexRun("12".into()));
        assert_eq!(k[2], HexRun("34".into()));
        assert_eq!(k[3], RBracket);
    }

    #[test]
    fn hex_runs_keep_lexeme_width() {
        // `[ 0011 ]` is the two bytes 0x00 0x11 — the leading zeros are
        // significant and must survive lexing.
        let k = kinds("[ 0011 ]");
        assert_eq!(k[1], TokenKind::HexRun("0011".into()));
    }

    #[test]
    fn non_hex_in_byte_string_errors() {
        let r = lex("[ 0xzz ]");
        assert!(matches!(r, Err(DtsError::BadNumber { .. })));
    }

    #[test]
    fn multibyte_strings_survive() {
        assert_eq!(kinds("\"µ-ctrl\"")[0], TokenKind::Str("µ-ctrl".into()));
    }
}
