//! A tolerant recursive-descent structure parser over the token stream
//! from [`crate::lexer`], producing the lightweight tree the syntax-aware
//! passes (`hot-alloc`, `lock-discipline`) walk.
//!
//! This is deliberately not a full Rust grammar. The tree models exactly
//! the structure the passes need — items and `fn` bodies, block / loop /
//! match / closure nesting, call, method-call and macro-call expressions,
//! and `let` bindings — and treats everything else
//! (types, operators, patterns) as trivia. Three properties are load
//! bearing and checked by `tests/parser_roundtrip.rs` over every `.rs`
//! file in the workspace:
//!
//! 1. **Totality** — the parser accepts any token stream; unknown
//!    constructs are consumed as trivia, never rejected.
//! 2. **Full coverage** — every non-comment token is consumed exactly
//!    once (the cursor only moves forward; [`Ast::consumed`] equals the
//!    significant-token count).
//! 3. **Monotone spans** — children nest strictly inside their parent's
//!    span and siblings appear in source order ([`Ast::validate`]).
//!
//! `#[cfg(test)]` masking carries over from the lexer: nodes expose
//! [`Ast::in_test`], which reports the flag of the node's first token.

use crate::lexer::{TokKind, Token};

/// Index of a node within [`Ast::nodes`].
pub type NodeId = usize;

/// Which loop construct produced a [`NodeKind::Loop`] node.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LoopKind {
    /// `for pat in iter { .. }` — the header runs **once** (the iterator
    /// is constructed before the first iteration), so only the body
    /// counts as "inside the loop".
    For,
    /// `while cond { .. }` — the header re-executes every iteration and
    /// counts as inside the loop.
    While,
    /// `loop { .. }`.
    Loop,
}

/// Receiver shape of a method call, as far as tokens can tell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Recv {
    /// Bare `self.method(..)` — a call on the same object, which the
    /// intra-file call graph treats as a local edge.
    SelfDot,
    /// The identifier immediately left of the dot: `shared.slots.lock()`
    /// carries `Tail("slots")`. Used to name the mutex a guard came from.
    Tail(String),
    /// Chained off a call, index, or literal result (`foo().bar()`).
    Chain,
}

/// What a node in the tree is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// The file root; parent of all items.
    Root,
    /// A `fn` item (free, inherent, or trait).
    Fn {
        /// The function's name.
        name: String,
    },
    /// A closure. The node spans the parameter list; a braced body is a
    /// child [`NodeKind::Block`], while an expression body's nodes stay
    /// in the parent scope (they still execute in the same loop/fn
    /// context, which is what the passes care about).
    Closure,
    /// A `for` / `while` / `loop`. Header expression nodes are direct
    /// children; the body block id is recorded in `body` once parsed.
    Loop {
        /// Which loop keyword introduced it.
        kind: LoopKind,
        /// Child id of the body [`NodeKind::Block`] (self id until the
        /// body has been parsed; always set on a well-formed loop).
        body: NodeId,
    },
    /// A `match` expression: scrutinee nodes then arm nodes as children.
    Match,
    /// A braced block: fn bodies, loop bodies, arms, bare blocks.
    Block,
    /// One statement inside a block.
    Stmt {
        /// `Some(name)` for `let name = ..;` (the name is `_` for
        /// `let _ = ..;`, empty for destructuring patterns).
        let_name: Option<String>,
    },
    /// A path call: `foo(..)`, `Vec::new(..)`, `mpsc::channel(..)`.
    Call {
        /// The `::`-joined path as written (turbofish segments elided).
        path: String,
    },
    /// A method call `recv.name(..)`.
    MethodCall {
        /// The method name.
        name: String,
        /// What the receiver looks like.
        recv: Recv,
    },
    /// A macro invocation `name!(..)` / `name![..]` / `name!{..}`.
    MacroCall {
        /// The macro name, without the `!`.
        name: String,
    },
}

/// One node of the structure tree. Spans are inclusive indices into
/// [`Ast::sig`], the significant (non-comment) token view.
#[derive(Clone, Debug)]
pub struct Node {
    /// What this node is.
    pub kind: NodeKind,
    /// Parent node id (`None` only for the root).
    pub parent: Option<NodeId>,
    /// Child node ids, in source order.
    pub children: Vec<NodeId>,
    /// First significant-token index covered by this node.
    pub first: usize,
    /// Last significant-token index covered by this node (inclusive).
    pub last: usize,
}

/// The parsed structure tree for one file.
#[derive(Clone, Debug)]
pub struct Ast {
    /// All nodes; index 0 is the [`NodeKind::Root`].
    pub nodes: Vec<Node>,
    /// Indices of non-comment tokens in the lexed stream, in order —
    /// the view all node spans refer to.
    pub sig: Vec<usize>,
    /// Number of significant tokens the parser consumed (equals
    /// `sig.len()` by construction; asserted by the round-trip test).
    pub consumed: usize,
}

impl Ast {
    /// The token at significant index `s`.
    pub fn tok<'a>(&self, tokens: &'a [Token], s: usize) -> &'a Token {
        &tokens[self.sig[s]]
    }

    /// The token a node's span starts at (its anchor for diagnostics).
    pub fn first_tok<'a>(&self, tokens: &'a [Token], id: NodeId) -> &'a Token {
        self.tok(tokens, self.nodes[id].first)
    }

    /// Whether the node sits in a `#[cfg(test)]` / `#[test]` region
    /// (the lexer's mask, read at the node's first token).
    pub fn in_test(&self, tokens: &[Token], id: NodeId) -> bool {
        self.first_tok(tokens, id).in_test
    }

    /// Walks every node id in source (pre-)order.
    pub fn walk(&self) -> impl Iterator<Item = NodeId> + '_ {
        // Nodes are pushed in open order, which is pre-order.
        0..self.nodes.len()
    }

    /// Structural invariants: full token coverage, child spans nested
    /// inside parents, siblings monotone. `Err` carries a description.
    pub fn validate(&self) -> Result<(), String> {
        if self.consumed != self.sig.len() {
            return Err(format!(
                "parser consumed {} of {} significant tokens",
                self.consumed,
                self.sig.len()
            ));
        }
        for (id, n) in self.nodes.iter().enumerate() {
            if n.first > n.last {
                return Err(format!(
                    "node {id} has inverted span {}..{}",
                    n.first, n.last
                ));
            }
            let mut prev_end: Option<usize> = None;
            for &c in &n.children {
                let ch = &self.nodes[c];
                if ch.parent != Some(id) {
                    return Err(format!("node {c} parent link broken"));
                }
                if ch.first < n.first || ch.last > n.last {
                    return Err(format!(
                        "child {c} span {}..{} escapes parent {id} span {}..{}",
                        ch.first, ch.last, n.first, n.last
                    ));
                }
                if let Some(pe) = prev_end {
                    if ch.first <= pe {
                        return Err(format!("siblings overlap at node {c}"));
                    }
                }
                prev_end = Some(ch.last);
            }
        }
        Ok(())
    }
}

/// Parses a lexed token stream into the structure tree. Total: never
/// fails, consumes every significant token.
pub fn parse(tokens: &[Token]) -> Ast {
    let sig: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind != TokKind::Comment)
        .map(|(i, _)| i)
        .collect();
    let mut p = Parser {
        toks: tokens,
        sig,
        pos: 0,
        nodes: Vec::new(),
        stack: Vec::new(),
    };
    let root = p.open(NodeKind::Root);
    p.items_until_close(false);
    p.close(root);
    let consumed = p.pos;
    // The root must span the whole file even when it is empty.
    if let Some(r) = p.nodes.first_mut() {
        r.first = 0;
        r.last = p.sig.len().saturating_sub(1);
    }
    Ast {
        nodes: p.nodes,
        sig: p.sig,
        consumed,
    }
}

struct Parser<'a> {
    toks: &'a [Token],
    sig: Vec<usize>,
    pos: usize,
    nodes: Vec<Node>,
    stack: Vec<NodeId>,
}

impl<'a> Parser<'a> {
    // ---------------------------------------------------------------
    // Cursor primitives
    // ---------------------------------------------------------------

    fn tok_at(&self, s: usize) -> Option<&'a Token> {
        self.sig.get(s).map(|&i| &self.toks[i])
    }

    fn cur(&self) -> Option<&'a Token> {
        self.tok_at(self.pos)
    }

    fn peek(&self, n: usize) -> Option<&'a Token> {
        self.tok_at(self.pos + n)
    }

    fn at_punct(&self, c: char) -> bool {
        self.cur().is_some_and(|t| t.is_punct(c))
    }

    fn at_ident(&self, s: &str) -> bool {
        self.cur().is_some_and(|t| t.is_ident(s))
    }

    fn eof(&self) -> bool {
        self.pos >= self.sig.len()
    }

    fn bump(&mut self) {
        if self.pos < self.sig.len() {
            self.pos += 1;
        }
    }

    /// Are the tokens at significant indices `a` and `a+1` glued
    /// (adjacent characters on the same line, like the two halves of
    /// `::`, `==`, `=>`, or `+=`)?
    fn glued(&self, a: usize) -> bool {
        match (self.tok_at(a), self.tok_at(a + 1)) {
            (Some(x), Some(y)) => {
                x.line == y.line && y.col == x.col + x.text.chars().count() as u32
            }
            _ => false,
        }
    }

    // ---------------------------------------------------------------
    // Node construction
    // ---------------------------------------------------------------

    fn open(&mut self, kind: NodeKind) -> NodeId {
        let id = self.nodes.len();
        let parent = self.stack.last().copied();
        self.nodes.push(Node {
            kind,
            parent,
            children: Vec::new(),
            first: self.pos,
            last: self.pos,
        });
        if let Some(p) = parent {
            self.nodes[p].children.push(id);
        }
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: NodeId) {
        debug_assert_eq!(self.stack.last().copied(), Some(id));
        self.stack.pop();
        self.nodes[id].last = self.pos.saturating_sub(1).max(self.nodes[id].first);
    }

    // ---------------------------------------------------------------
    // Items
    // ---------------------------------------------------------------

    /// Parses items until EOF (`expect_close == false`) or a `}` closing
    /// the surrounding item body (`expect_close == true`; the `}` is
    /// consumed by the caller).
    fn items_until_close(&mut self, expect_close: bool) {
        while !self.eof() {
            if expect_close && self.at_punct('}') {
                return;
            }
            self.item();
        }
    }

    fn item(&mut self) {
        let Some(t) = self.cur() else { return };
        match t.kind {
            TokKind::Punct if t.text == "#" => self.attribute(),
            TokKind::Ident => match t.text.as_str() {
                "fn" => self.fn_item(),
                // Visibility and qualifier keywords are trivia; the next
                // loop turn dispatches whatever they qualify.
                "pub" => {
                    self.bump();
                    if self.at_punct('(') {
                        self.balanced('(', ')');
                    }
                }
                "unsafe" | "async" | "default" => self.bump(),
                "const" | "static" => {
                    // `const fn` / `static` item; `const` may qualify a fn.
                    self.bump();
                    if !self.at_ident("fn") {
                        self.skim_to_item_end();
                    }
                }
                "impl" | "trait" | "mod" => {
                    self.bump();
                    self.body_items_or_semi();
                }
                "macro_rules" => {
                    self.bump();
                    if self.at_punct('!') {
                        self.bump();
                    }
                    if self.cur().is_some_and(|t| t.kind == TokKind::Ident) {
                        self.bump();
                    }
                    // The whole definition body is token soup: skim it.
                    match self.cur() {
                        Some(t) if t.is_punct('{') => self.balanced('{', '}'),
                        Some(t) if t.is_punct('(') => {
                            self.balanced('(', ')');
                            if self.at_punct(';') {
                                self.bump();
                            }
                        }
                        _ => self.bump(),
                    }
                }
                "extern" | "use" | "struct" | "enum" | "type" | "union" => {
                    self.bump();
                    self.skim_to_item_end();
                }
                // `thread_local! { .. }` and friends at item level.
                _ if self.peek(1).is_some_and(|n| n.is_punct('!')) => {
                    self.bump();
                    self.bump();
                    match self.cur() {
                        Some(t) if t.is_punct('{') => self.balanced('{', '}'),
                        Some(t) if t.is_punct('(') || t.is_punct('[') => {
                            let (o, c) = if t.is_punct('(') {
                                ('(', ')')
                            } else {
                                ('[', ']')
                            };
                            self.balanced(o, c);
                            if self.at_punct(';') {
                                self.bump();
                            }
                        }
                        _ => {}
                    }
                }
                _ => self.bump(),
            },
            _ => self.bump(),
        }
    }

    /// `#[...]` and `#![...]` attributes, consumed as trivia.
    fn attribute(&mut self) {
        self.bump(); // '#'
        if self.at_punct('!') {
            self.bump();
        }
        if self.at_punct('[') {
            self.balanced('[', ']');
        }
    }

    /// After `impl`/`trait`/`mod`: skim the header, then parse the brace
    /// body as items (or stop at `;` for `mod name;`).
    fn body_items_or_semi(&mut self) {
        let mut depth = 0u32;
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    ";" if depth == 0 => {
                        self.bump();
                        return;
                    }
                    "{" if depth == 0 => {
                        self.bump();
                        self.items_until_close(true);
                        if self.at_punct('}') {
                            self.bump();
                        }
                        return;
                    }
                    _ => {}
                }
            }
            self.bump();
        }
    }

    /// Consumes a `use`/`struct`/`enum`/… item: to a top-level `;`, or
    /// through a balanced top-level `{..}` body (plus a trailing `;`).
    fn skim_to_item_end(&mut self) {
        let mut depth = 0u32;
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    ";" if depth == 0 => {
                        self.bump();
                        return;
                    }
                    "{" if depth == 0 => {
                        self.balanced('{', '}');
                        if self.at_punct(';') {
                            self.bump();
                        }
                        return;
                    }
                    _ => {}
                }
            }
            self.bump();
        }
    }

    /// Consumes a balanced `open..close` pair of any depth; the cursor
    /// sits on `open`.
    fn balanced(&mut self, open: char, close: char) {
        let mut depth = 0u32;
        while let Some(t) = self.cur() {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    fn fn_item(&mut self) {
        let start = self.pos;
        self.bump(); // `fn`
        let name = match self.cur() {
            Some(t) if t.kind == TokKind::Ident => {
                let n = t.text.clone();
                self.bump();
                n
            }
            _ => String::new(),
        };
        // Signature: scan to the body `{` or a `;` (trait method decl).
        let mut depth = 0u32;
        let mut has_body = false;
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    ";" if depth == 0 => {
                        self.bump();
                        break;
                    }
                    "{" if depth == 0 => {
                        has_body = true;
                        break;
                    }
                    _ => {}
                }
            }
            self.bump();
        }
        let id = self.open(NodeKind::Fn { name });
        self.nodes[id].first = start;
        if has_body {
            self.block();
        }
        self.close(id);
    }

    // ---------------------------------------------------------------
    // Blocks and statements
    // ---------------------------------------------------------------

    /// A braced block; the cursor sits on `{`.
    fn block(&mut self) -> NodeId {
        let id = self.open(NodeKind::Block);
        if self.at_punct('{') {
            self.bump();
        }
        while !self.eof() && !self.at_punct('}') {
            let before = self.pos;
            self.stmt();
            if self.pos == before {
                // A stray closer (`)` / `]`) in statement position:
                // `stmt()` refuses it, so consume it here — the parser
                // must make progress on arbitrary (truncated) input.
                self.bump();
            }
        }
        if self.at_punct('}') {
            self.bump();
        }
        self.close(id);
        id
    }

    fn stmt(&mut self) {
        while self.at_punct('#') {
            self.attribute();
        }
        if self.eof() || self.at_punct('}') {
            return;
        }
        // Stray `;` (empty statement).
        if self.at_punct(';') {
            self.bump();
            return;
        }
        let first = self.cur().map(|t| t.text.clone()).unwrap_or_default();
        if first == "let" {
            self.let_stmt();
            return;
        }
        // Block-style constructs and nested items end their own
        // statement; an optional trailing `;` is consumed.
        match first.as_str() {
            "if" | "match" | "while" | "for" | "loop" | "unsafe" | "{" => {
                let id = self.open(NodeKind::Stmt { let_name: None });
                self.construct();
                if self.at_punct(';') {
                    self.bump();
                }
                self.close(id);
                return;
            }
            // Items may appear inside fn bodies.
            "fn" | "struct" | "enum" | "impl" | "mod" | "use" | "trait" | "macro_rules"
            | "type" => {
                self.item();
                return;
            }
            _ => {}
        }
        let id = self.open(NodeKind::Stmt { let_name: None });
        self.expr_until(Stop::Semi);
        if self.at_punct(';') {
            self.bump();
        }
        self.close(id);
    }

    fn let_stmt(&mut self) {
        let id = self.open(NodeKind::Stmt { let_name: None });
        self.bump(); // `let`
        if self.at_ident("mut") {
            self.bump();
        }
        // Binding name: a plain ident not starting a path/struct/tuple
        // pattern. Destructuring patterns record an empty name.
        let mut name = String::new();
        if let Some(t) = self.cur() {
            if t.kind == TokKind::Ident {
                let next_opens_pattern = self.peek(1).is_some_and(|n| {
                    n.is_punct('(')
                        || n.is_punct('{')
                        || (n.is_punct(':') && self.glued(self.pos + 1))
                });
                if !next_opens_pattern
                    || self
                        .peek(1)
                        .is_some_and(|n| n.is_punct(':') && !self.glued(self.pos + 1))
                {
                    name = t.text.clone();
                }
            }
        }
        if let NodeKind::Stmt { let_name, .. } = &mut self.nodes[id].kind {
            *let_name = Some(name);
        }
        // Pattern and optional type annotation: scan to `=` / `;`.
        let mut depth = 0u32;
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    ";" if depth == 0 => break,
                    "=" if depth == 0 && self.is_plain_assign() => {
                        self.bump();
                        self.expr_until(Stop::Semi);
                        break;
                    }
                    _ => {}
                }
            }
            self.bump();
        }
        if self.at_punct(';') {
            self.bump();
        }
        self.close(id);
    }

    /// Is the `=` at the cursor a plain assignment/binding `=` — not one
    /// half of `==`, `=>`, `<=`, `>=`, `!=`, or a compound `+=`-style
    /// operator? The lexer emits single-char puncts, so multi-char
    /// operators are recovered from glued adjacency.
    fn is_plain_assign(&self) -> bool {
        let glued_after = self.glued(self.pos)
            && self
                .peek(1)
                .is_some_and(|n| n.is_punct('=') || n.is_punct('>'));
        let glued_before = self.pos > 0
            && self.glued(self.pos - 1)
            && self.tok_at(self.pos - 1).is_some_and(|p| {
                p.kind == TokKind::Punct
                    && matches!(
                        p.text.as_str(),
                        "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^" | "!" | "=" | "<" | ">"
                    )
            });
        !glued_after && !glued_before
    }

    /// Keyword-introduced constructs usable in both statement and
    /// expression position. The cursor sits on the keyword (or `{`).
    fn construct(&mut self) {
        let Some(t) = self.cur() else { return };
        match t.text.as_str() {
            "if" => {
                self.bump();
                self.expr_until(Stop::Brace);
                if self.at_punct('{') {
                    self.block();
                }
                while self.at_ident("else") {
                    self.bump();
                    if self.at_ident("if") {
                        self.bump();
                        self.expr_until(Stop::Brace);
                    }
                    if self.at_punct('{') {
                        self.block();
                    } else {
                        break;
                    }
                }
            }
            "match" => {
                let id = self.open(NodeKind::Match);
                self.bump();
                self.expr_until(Stop::Brace);
                if self.at_punct('{') {
                    self.bump();
                    while !self.eof() && !self.at_punct('}') {
                        self.match_arm();
                    }
                    if self.at_punct('}') {
                        self.bump();
                    }
                }
                self.close(id);
            }
            "for" => self.loop_construct(LoopKind::For),
            "while" => self.loop_construct(LoopKind::While),
            "loop" => self.loop_construct(LoopKind::Loop),
            "unsafe" => {
                self.bump();
                if self.at_punct('{') {
                    self.block();
                }
            }
            "{" => {
                self.block();
            }
            _ => self.bump(),
        }
    }

    fn loop_construct(&mut self, kind: LoopKind) {
        let id = self.open(NodeKind::Loop { kind, body: 0 });
        // `body: 0` is a placeholder (the root id); patched below.
        self.bump(); // keyword
        if kind != LoopKind::Loop {
            self.expr_until(Stop::Brace);
        }
        let body = if self.at_punct('{') {
            self.block()
        } else {
            id // malformed source: point at self so queries stay total
        };
        if let NodeKind::Loop { body: b, .. } = &mut self.nodes[id].kind {
            *b = body;
        }
        self.close(id);
    }

    /// One `pat => expr` arm; tolerant of or-patterns and guards.
    fn match_arm(&mut self) {
        while self.at_punct('#') {
            self.attribute();
        }
        // Pattern + optional guard: scan to the glued `=>`.
        let mut depth = 0u32;
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    "{" => {
                        // Struct pattern body.
                        self.balanced('{', '}');
                        continue;
                    }
                    "=" if depth == 0
                        && self.glued(self.pos)
                        && self.peek(1).is_some_and(|n| n.is_punct('>')) =>
                    {
                        self.bump();
                        self.bump();
                        break;
                    }
                    "}" if depth == 0 => return, // end of match body
                    _ => {}
                }
            }
            self.bump();
        }
        // Arm body: a block, or an expression up to the arm comma.
        if self.at_punct('{') {
            self.block();
        } else {
            self.expr_until(Stop::Comma);
        }
        if self.at_punct(',') {
            self.bump();
        }
    }

    // ---------------------------------------------------------------
    // Expressions
    // ---------------------------------------------------------------

    /// Scans expression tokens until the stop condition, creating nodes
    /// for the constructs the passes need.
    fn expr_until(&mut self, stop: Stop) {
        let mut depth_paren = 0u32;
        let mut depth_brack = 0u32;
        while let Some(t) = self.cur() {
            let depth0 = depth_paren == 0 && depth_brack == 0;
            match t.kind {
                TokKind::Punct => match t.text.as_str() {
                    // In bracketed contexts (`Stop::None`: call args,
                    // macro bodies) a top-level `;` is the array
                    // repeat separator (`[x; n]`, `vec![x; n]`) — scan
                    // past it to the real closer.
                    ";" if depth0 && stop != Stop::None => return,
                    "}" if depth0 => return,
                    "," if depth0 && stop == Stop::Comma => return,
                    "{" if depth0 && stop == Stop::Brace => return,
                    ")" => {
                        if depth_paren == 0 {
                            return; // closes the enclosing context
                        }
                        depth_paren -= 1;
                        self.bump();
                    }
                    "]" => {
                        if depth_brack == 0 {
                            return;
                        }
                        depth_brack -= 1;
                        self.bump();
                    }
                    "(" => {
                        depth_paren += 1;
                        self.bump();
                    }
                    "[" => {
                        depth_brack += 1;
                        self.bump();
                    }
                    "{" => {
                        // A block in expression position (closure body,
                        // struct literal, async/const block…).
                        self.block();
                    }
                    "." => self.dot(),
                    "|" => self.pipe(),
                    "#" => self.attribute(),
                    _ => self.bump(),
                },
                TokKind::Ident => match t.text.as_str() {
                    "if" | "match" | "while" | "for" | "loop" | "unsafe" => self.construct(),
                    "move" if self.peek(1).is_some_and(|n| n.is_punct('|')) => {
                        self.bump(); // the `|` branch decides closure-ness
                    }
                    _ => self.path_or_call(),
                },
                _ => self.bump(),
            }
        }
    }

    /// Does the token before the cursor end a primary expression (so a
    /// following `|` is the binary operator, not a closure)?
    fn follows_primary(&self) -> bool {
        let Some(p) = self.pos.checked_sub(1).and_then(|i| self.tok_at(i)) else {
            return false;
        };
        match p.kind {
            TokKind::Ident => !matches!(
                p.text.as_str(),
                "return"
                    | "break"
                    | "in"
                    | "else"
                    | "match"
                    | "if"
                    | "while"
                    | "let"
                    | "mut"
                    | "move"
                    | "box"
                    | "ref"
            ),
            TokKind::Punct => p.text == ")" || p.text == "]",
            // Literals end a primary expression: `0 | mask`, `b'x' | y`.
            TokKind::Num | TokKind::Str | TokKind::Char => true,
            _ => false,
        }
    }

    /// `.name(..)` → method call; `.name` / `.0` / `..` → trivia.
    fn dot(&mut self) {
        let is_method = self.peek(1).is_some_and(|n| n.kind == TokKind::Ident)
            && self.peek(2).is_some_and(|n| n.is_punct('('));
        if !is_method {
            self.bump(); // just the dot
            return;
        }
        let recv = match self.pos.checked_sub(1).and_then(|i| self.tok_at(i)) {
            Some(p) if p.kind == TokKind::Ident => {
                let before = self
                    .pos
                    .checked_sub(2)
                    .and_then(|i| self.tok_at(i))
                    .is_some_and(|b| b.is_punct('.'));
                if p.text == "self" && !before {
                    Recv::SelfDot
                } else {
                    Recv::Tail(p.text.clone())
                }
            }
            Some(p) if p.is_punct(')') || p.is_punct(']') => Recv::Chain,
            _ => Recv::Chain,
        };
        let name = self.peek(1).map(|t| t.text.clone()).unwrap_or_default();
        let id = self.open(NodeKind::MethodCall { name, recv });
        self.bump(); // .
        self.bump(); // name
        self.bump(); // (
        self.expr_until(Stop::None);
        if self.at_punct(')') {
            self.bump();
        }
        self.close(id);
    }

    /// An identifier: path scan, then call / macro-call / plain.
    fn path_or_call(&mut self) {
        let start = self.pos;
        let mut segments = vec![self.cur().map(|t| t.text.clone()).unwrap_or_default()];
        self.bump();
        // `a::b::<T>::c` path chains.
        loop {
            let at_colons = self.at_punct(':')
                && self.glued(self.pos)
                && self.peek(1).is_some_and(|n| n.is_punct(':'));
            if !at_colons {
                break;
            }
            self.bump();
            self.bump();
            if self.at_punct('<') {
                self.angles();
                continue; // expect another `::` or stop
            }
            match self.cur() {
                Some(t) if t.kind == TokKind::Ident => {
                    segments.push(t.text.clone());
                    self.bump();
                }
                _ => break,
            }
        }
        if self.at_punct('!')
            && self
                .peek(1)
                .is_some_and(|n| n.is_punct('(') || n.is_punct('[') || n.is_punct('{'))
        {
            let name = segments.join("::");
            let id = self.open(NodeKind::MacroCall { name });
            self.nodes[id].first = start;
            self.bump(); // !
            match self.cur() {
                Some(t) if t.is_punct('(') => {
                    self.bump();
                    self.expr_until(Stop::None);
                    if self.at_punct(')') {
                        self.bump();
                    }
                }
                Some(t) if t.is_punct('[') => {
                    self.bump();
                    self.expr_until(Stop::None);
                    if self.at_punct(']') {
                        self.bump();
                    }
                }
                Some(t) if t.is_punct('{') => {
                    self.block();
                }
                _ => {}
            }
            self.close(id);
            return;
        }
        if self.at_punct('(') {
            let id = self.open(NodeKind::Call {
                path: segments.join("::"),
            });
            self.nodes[id].first = start;
            self.bump(); // (
            self.expr_until(Stop::None);
            if self.at_punct(')') {
                self.bump();
            }
            self.close(id);
        }
        // Plain ident/path: already consumed.
    }

    /// Balanced `<..>` (turbofish / generic args). The cursor sits on `<`.
    fn angles(&mut self) {
        let mut depth = 0u32;
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            self.bump();
                            return;
                        }
                    }
                    // Safety: a turbofish never contains these.
                    ";" | "{" | ")" => return,
                    _ => {}
                }
            }
            self.bump();
        }
    }

    /// `|` in expression position: a closure's parameter list, or a
    /// binary/bitwise or (trivia). Lookahead decides without consuming.
    fn pipe(&mut self) {
        // After a primary expression, `|` is the binary operator.
        if self.follows_primary() {
            self.bump();
            return;
        }
        // `||` glued: an empty parameter list (or logical-or, which
        // cannot appear at expression start).
        let empty_params = self.glued(self.pos) && self.peek(1).is_some_and(|n| n.is_punct('|'));
        if !empty_params && !self.closure_lookahead() {
            self.bump();
            return;
        }
        let id = self.open(NodeKind::Closure);
        self.bump(); // |
        if empty_params {
            self.bump(); // second |
        } else {
            let mut depth = 0u32;
            while let Some(t) = self.cur() {
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth = depth.saturating_sub(1),
                        "|" if depth == 0 => {
                            self.bump();
                            break;
                        }
                        _ => {}
                    }
                }
                self.bump();
            }
        }
        if self.at_punct('{') {
            self.block();
        }
        // Expression bodies stay in the parent scan: they run in the
        // same loop/fn context, which is what the passes query.
        self.close(id);
    }

    /// Does a closing `|` appear at depth 0 before anything that rules a
    /// parameter list out (`;`, `{`, `}`, a glued `=>`)?
    fn closure_lookahead(&self) -> bool {
        let mut depth = 0u32;
        for off in 1..64 {
            let Some(t) = self.peek(off) else {
                return false;
            };
            if t.kind != TokKind::Punct {
                continue;
            }
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    if depth == 0 {
                        return false;
                    }
                    depth -= 1;
                }
                "|" if depth == 0 => return true,
                ";" | "{" | "}" => return false,
                "=" if self.glued(self.pos + off)
                    && self.peek(off + 1).is_some_and(|n| n.is_punct('>')) =>
                {
                    return false;
                }
                _ => {}
            }
        }
        false
    }
}

/// Where [`Parser::expr_until`] stops (besides the always-on `;` and `}`
/// at depth 0).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Stop {
    /// Only the defaults (`;` / `}` at depth 0, or an unbalanced closer).
    None,
    /// Statement context: same as `None` (named for readability).
    Semi,
    /// Stop at `{` at depth 0 (loop/if/match headers).
    Brace,
    /// Stop at `,` at depth 0 (match-arm expression bodies).
    Comma,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> (Vec<Token>, Ast) {
        let toks = lex(src);
        let ast = parse(&toks);
        ast.validate().expect("valid ast");
        (toks, ast)
    }

    fn find(ast: &Ast, pred: impl Fn(&NodeKind) -> bool) -> Vec<&Node> {
        ast.nodes.iter().filter(|n| pred(&n.kind)).collect()
    }

    #[test]
    fn fn_items_and_names() {
        let (_, ast) = parsed(
            "fn alpha() { beta(); }\nimpl Foo { pub const fn beta(&self) -> Result<u8, ()> { Ok(1) } }",
        );
        let fns: Vec<&str> = find(&ast, |k| matches!(k, NodeKind::Fn { .. }))
            .iter()
            .map(|n| match &n.kind {
                NodeKind::Fn { name, .. } => name.as_str(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(fns, ["alpha", "beta"]);
    }

    #[test]
    fn calls_methods_and_macros() {
        let (_, ast) = parsed(
            "fn f() { let v = Vec::new(); shared.slots.lock(); self.step(); vec![1]; foo()?; }",
        );
        let calls: Vec<String> = find(&ast, |k| matches!(k, NodeKind::Call { .. }))
            .iter()
            .map(|n| match &n.kind {
                NodeKind::Call { path } => path.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(calls, ["Vec::new", "foo"]);
        let methods: Vec<(String, Recv)> = find(&ast, |k| matches!(k, NodeKind::MethodCall { .. }))
            .iter()
            .map(|n| match &n.kind {
                NodeKind::MethodCall { name, recv } => (name.clone(), recv.clone()),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            methods,
            [
                ("lock".to_string(), Recv::Tail("slots".to_string())),
                ("step".to_string(), Recv::SelfDot),
            ]
        );
        let macros = find(&ast, |k| matches!(k, NodeKind::MacroCall { .. }));
        assert_eq!(macros.len(), 1);
    }

    #[test]
    fn loops_record_kind_and_body() {
        let (_, ast) = parsed(
            "fn f(n: usize) { for i in 0..n { g(i); } while n > 0 { h(); } loop { break; } }",
        );
        let loops = find(&ast, |k| matches!(k, NodeKind::Loop { .. }));
        assert_eq!(loops.len(), 3);
        for n in &loops {
            let NodeKind::Loop { body, .. } = n.kind else {
                unreachable!()
            };
            assert!(matches!(ast.nodes[body].kind, NodeKind::Block));
        }
    }

    #[test]
    fn closure_versus_bitwise_or() {
        let (_, ast) = parsed("fn f(a: u8, b: u8) -> u8 { let c = a | b; let g = |x: u8| x + 1; v.iter().map(|v| v * 2); c }");
        let closures = find(&ast, |k| matches!(k, NodeKind::Closure));
        assert_eq!(closures.len(), 2);
    }

    #[test]
    fn let_names() {
        let (_, ast) = parsed(
            "fn f() { let x = g(); let _ = h(); let (a, b) = pair(); let y: Vec<u8>= v; k(); }",
        );
        let stmts: Vec<Option<String>> = find(&ast, |k| matches!(k, NodeKind::Stmt { .. }))
            .iter()
            .map(|n| match &n.kind {
                NodeKind::Stmt { let_name } => let_name.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            stmts,
            [
                Some("x".to_string()),
                Some("_".to_string()),
                Some(String::new()),
                Some("y".to_string()),
                None, // k();
            ]
        );
    }

    #[test]
    fn match_arms_parse_and_struct_literals_do_not_confuse_blocks() {
        let (_, ast) = parsed(
            "fn f(x: Option<u8>) -> u8 { match x { Some(v) if v > 1 => v, Some(_) | None => { g(); 0 } } }\nfn mk() -> S { S { a: 1, b: 2 } }",
        );
        assert_eq!(find(&ast, |k| matches!(k, NodeKind::Match)).len(), 1);
        // g() inside the arm block is a call node.
        assert!(find(&ast, |k| matches!(k, NodeKind::Call { .. }))
            .iter()
            .any(|n| matches!(&n.kind, NodeKind::Call { path } if path == "g")));
    }

    #[test]
    fn full_coverage_on_gnarly_input() {
        let src = r##"
            #![allow(dead_code)]
            use std::collections::BTreeMap;
            macro_rules! gnarly { ($x:expr) => { $x + 1 }; }
            const K: usize = { 3 + 4 };
            static S: &str = "str with } brace";
            pub(crate) struct T<A: Fn(u8) -> u8> { f: A }
            trait Tr { fn decl(&self) -> Result<(), ()>; fn dflt(&self) {} }
            fn generic<T: Into<u64>>(v: Vec<T>) -> BTreeMap<u64, u64> {
                let mut m = BTreeMap::<u64, u64>::new();
                for (i, x) in v.into_iter().enumerate() {
                    m.insert(i as u64, x.into());
                }
                let r#raw = 1;
                m
            }
        "##;
        let toks = lex(src);
        let ast = parse(&toks);
        ast.validate().expect("gnarly input parses totally");
    }

    #[test]
    fn test_regions_carry_over() {
        let (toks, ast) =
            parsed("fn live() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }");
        let unwraps: Vec<bool> = ast
            .walk()
            .filter(|&id| {
                matches!(&ast.nodes[id].kind, NodeKind::MethodCall { name, .. } if name == "unwrap")
            })
            .map(|id| ast.in_test(&toks, id))
            .collect();
        assert_eq!(unwraps, [true]);
    }
}
