package query

import (
	"math"
	"strconv"
	"strings"
	"sync"
)

// Chunk-sized operand scratch, pooled across kernel invocations: a deep
// expression over a million-row table evaluates every tree node once per
// chunk, and allocating fresh operand buffers each time generates enough
// garbage to tax the phases running next to the query (the highlight
// threshold scan lives inside the analysis pipeline). Buffers are fully
// overwritten by the child eval before they are read, so reuse cannot
// change results. Ranges wider than exprChunk (callers outside ParallelFor
// chunking) fall back to a plain allocation.
var (
	numScratch  = sync.Pool{New: func() any { s := make([]float64, exprChunk); return &s }}
	boolScratch = sync.Pool{New: func() any { s := make([]bool, exprChunk); return &s }}
)

func getNum(n int) (*[]float64, []float64) {
	if n > exprChunk {
		return nil, make([]float64, n)
	}
	p := numScratch.Get().(*[]float64)
	return p, (*p)[:n]
}

func putNum(p *[]float64) {
	if p != nil {
		numScratch.Put(p)
	}
}

func getBool(n int) (*[]bool, []bool) {
	if n > exprChunk {
		return nil, make([]bool, n)
	}
	p := boolScratch.Get().(*[]bool)
	return p, (*p)[:n]
}

func putBool(p *[]bool) {
	if p != nil {
		boolScratch.Put(p)
	}
}

// Expr is a compiled scalar expression over table columns: arithmetic over
// numeric columns and literals, comparisons (numeric or string), boolean
// combinators, and the prefix(col, "lit") grain-subtree test. Compilation
// (ParseExpr) is schema-free; binding against a concrete table happens at
// evaluation time so one compiled expression serves many tables.
type Expr struct {
	root exprNode
	src  string
}

// ParseExpr compiles one scalar expression.
func ParseExpr(src string) (*Expr, error) {
	p := &exprParser{toks: lex(src), src: src}
	n, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, errf(src, "unexpected %q after expression", p.peek().text)
	}
	return &Expr{root: n, src: src}, nil
}

// exprNode is one compiled AST node. eval writes the node's value for rows
// [lo,hi) of frame f — positions in its selection, not source rows — into a
// fresh or scratch vector.
type exprNode interface {
	// check validates the node against t's schema and returns the node's
	// result class: true when boolean, false when numeric or string.
	check(t *Table) (isBool bool, isStr bool, err error)
	// evalNum fills out[0:hi-lo] with the numeric value of rows [lo,hi).
	evalNum(f frame, lo, hi int, out []float64)
	// evalBool fills out[0:hi-lo] with the boolean value of rows [lo,hi).
	evalBool(f frame, lo, hi int, out []bool)
	// evalStr returns the string value of row i (string nodes only — string
	// data is only compared, never transformed, so no vector form needed).
	evalStr(f frame, i int) string
}

// baseNode provides panicking defaults so each node implements only the
// class check allows it to be.
type baseNode struct{}

func (baseNode) evalNum(frame, int, int, []float64) { panic("query: not a numeric expression") }
func (baseNode) evalBool(frame, int, int, []bool)   { panic("query: not a boolean expression") }
func (baseNode) evalStr(frame, int) string          { panic("query: not a string expression") }

// numLit is a numeric literal.
type numLit struct {
	baseNode
	v float64
}

func (numLit) check(*Table) (bool, bool, error) { return false, false, nil }
func (n numLit) evalNum(_ frame, lo, hi int, out []float64) {
	for i := range out[:hi-lo] {
		out[i] = n.v
	}
}

// strLit is a quoted string literal.
type strLit struct {
	baseNode
	v string
}

func (strLit) check(*Table) (bool, bool, error) { return false, true, nil }
func (s strLit) evalStr(frame, int) string      { return s.v }

// colRef reads a table column by name.
type colRef struct {
	baseNode
	name string
}

func (c colRef) check(t *Table) (bool, bool, error) {
	col := t.Col(c.name)
	if col == nil {
		return false, false, errf(c.name, "unknown column (have %s)", columnNames(t))
	}
	return false, col.Kind == Str, nil
}

func (c colRef) evalNum(f frame, lo, hi int, out []float64) {
	col := f.schema.Col(c.name)
	if f.sel != nil {
		for i, r := range f.sel[lo:hi] {
			out[i] = col.num(int(r))
		}
		return
	}
	if col.Kind == Float {
		copy(out, col.F[lo:hi])
		return
	}
	for i, v := range col.I[lo:hi] {
		out[i] = float64(v)
	}
}

func (c colRef) evalStr(f frame, i int) string { return f.schema.Col(c.name).S[f.row(i)] }

// unaryOp is numeric negation or boolean not.
type unaryOp struct {
	baseNode
	op string // "-" or "!"
	x  exprNode
}

func (u unaryOp) check(t *Table) (bool, bool, error) {
	xb, xs, err := u.x.check(t)
	if err != nil {
		return false, false, err
	}
	if u.op == "!" {
		if !xb {
			return false, false, errf(u.op, "operand of ! must be boolean")
		}
		return true, false, nil
	}
	if xb || xs {
		return false, false, errf(u.op, "operand of unary - must be numeric")
	}
	return false, false, nil
}

func (u unaryOp) evalNum(f frame, lo, hi int, out []float64) {
	u.x.evalNum(f, lo, hi, out)
	for i := range out[:hi-lo] {
		out[i] = -out[i]
	}
}

func (u unaryOp) evalBool(f frame, lo, hi int, out []bool) {
	u.x.evalBool(f, lo, hi, out)
	for i := range out[:hi-lo] {
		out[i] = !out[i]
	}
}

// arithOp is + - * / over numeric operands.
type arithOp struct {
	baseNode
	op   string
	l, r exprNode
}

func (a arithOp) check(t *Table) (bool, bool, error) {
	for _, x := range []exprNode{a.l, a.r} {
		b, s, err := x.check(t)
		if err != nil {
			return false, false, err
		}
		if b || s {
			return false, false, errf(a.op, "operands of %s must be numeric", a.op)
		}
	}
	return false, false, nil
}

func (a arithOp) evalNum(f frame, lo, hi int, out []float64) {
	n := hi - lo
	rp, rhs := getNum(n)
	defer putNum(rp)
	a.l.evalNum(f, lo, hi, out)
	a.r.evalNum(f, lo, hi, rhs)
	switch a.op {
	case "+":
		for i := 0; i < n; i++ {
			out[i] += rhs[i]
		}
	case "-":
		for i := 0; i < n; i++ {
			out[i] -= rhs[i]
		}
	case "*":
		for i := 0; i < n; i++ {
			out[i] *= rhs[i]
		}
	default: // "/" — IEEE semantics: x/0 is ±Inf or NaN, same as Go float64
		for i := 0; i < n; i++ {
			out[i] /= rhs[i]
		}
	}
}

// cmpOp compares two numeric or two string operands.
type cmpOp struct {
	baseNode
	op   string
	l, r exprNode
	str  bool // set by check: string comparison
}

func (c *cmpOp) check(t *Table) (bool, bool, error) {
	lb, ls, err := c.l.check(t)
	if err != nil {
		return false, false, err
	}
	rb, rs, err := c.r.check(t)
	if err != nil {
		return false, false, err
	}
	if lb || rb {
		return false, false, errf(c.op, "cannot compare boolean values with %s", c.op)
	}
	if ls != rs {
		return false, false, errf(c.op, "cannot compare string with number")
	}
	c.str = ls
	if c.str && c.op != "==" && c.op != "!=" {
		return false, false, errf(c.op, "strings support only == and !=")
	}
	return true, false, nil
}

func (c *cmpOp) evalBool(f frame, lo, hi int, out []bool) {
	n := hi - lo
	if c.str {
		for i := 0; i < n; i++ {
			eq := c.l.evalStr(f, lo+i) == c.r.evalStr(f, lo+i)
			out[i] = eq == (c.op == "==")
		}
		return
	}
	lp, lhs := getNum(n)
	rp, rhs := getNum(n)
	defer putNum(lp)
	defer putNum(rp)
	c.l.evalNum(f, lo, hi, lhs)
	c.r.evalNum(f, lo, hi, rhs)
	switch c.op {
	case "<":
		for i := 0; i < n; i++ {
			out[i] = lhs[i] < rhs[i]
		}
	case "<=":
		for i := 0; i < n; i++ {
			out[i] = lhs[i] <= rhs[i]
		}
	case ">":
		for i := 0; i < n; i++ {
			out[i] = lhs[i] > rhs[i]
		}
	case ">=":
		for i := 0; i < n; i++ {
			out[i] = lhs[i] >= rhs[i]
		}
	case "==":
		for i := 0; i < n; i++ {
			out[i] = lhs[i] == rhs[i]
		}
	default: // "!="
		for i := 0; i < n; i++ {
			out[i] = lhs[i] != rhs[i]
		}
	}
}

// boolOp is && or || over boolean operands. Both sides evaluate fully
// (vectorized, no short-circuit) — expressions are pure, so this only costs
// cycles, never changes results.
type boolOp struct {
	baseNode
	op   string
	l, r exprNode
}

func (b boolOp) check(t *Table) (bool, bool, error) {
	for _, x := range []exprNode{b.l, b.r} {
		xb, _, err := x.check(t)
		if err != nil {
			return false, false, err
		}
		if !xb {
			return false, false, errf(b.op, "operands of %s must be boolean", b.op)
		}
	}
	return true, false, nil
}

func (b boolOp) evalBool(f frame, lo, hi int, out []bool) {
	n := hi - lo
	rp, rhs := getBool(n)
	defer putBool(rp)
	b.l.evalBool(f, lo, hi, out)
	b.r.evalBool(f, lo, hi, rhs)
	if b.op == "&&" {
		for i := 0; i < n; i++ {
			out[i] = out[i] && rhs[i]
		}
		return
	}
	for i := 0; i < n; i++ {
		out[i] = out[i] || rhs[i]
	}
}

// prefixFn is prefix(strExpr, strExpr): true when the first operand starts
// with the second — the grain-ID subtree test ("every grain under R.2" is
// prefix(id, "R.2.") || id == "R.2").
type prefixFn struct {
	baseNode
	s, pre exprNode
}

func (p prefixFn) check(t *Table) (bool, bool, error) {
	for _, x := range []exprNode{p.s, p.pre} {
		_, xs, err := x.check(t)
		if err != nil {
			return false, false, err
		}
		if !xs {
			return false, false, errf("prefix", "arguments must be strings")
		}
	}
	return true, false, nil
}

func (p prefixFn) evalBool(f frame, lo, hi int, out []bool) {
	for i := range out[:hi-lo] {
		out[i] = strings.HasPrefix(p.s.evalStr(f, lo+i), p.pre.evalStr(f, lo+i))
	}
}

// underFn is under(strExpr, strExpr): true when the first operand (a
// dot-separated grain ID) lies in the subtree rooted at the second — equal
// to it, or having it as a dotted ancestor prefix.
type underFn struct {
	baseNode
	s, root exprNode
}

func (u underFn) check(t *Table) (bool, bool, error) {
	return prefixFn{s: u.s, pre: u.root}.check(t)
}

func (u underFn) evalBool(f frame, lo, hi int, out []bool) {
	for i := range out[:hi-lo] {
		s, root := u.s.evalStr(f, lo+i), u.root.evalStr(f, lo+i)
		out[i] = s == root || (strings.HasPrefix(s, root) && len(s) > len(root) && s[len(root)] == '.')
	}
}

// absFn is abs(numExpr).
type absFn struct {
	baseNode
	x exprNode
}

func (a absFn) check(t *Table) (bool, bool, error) {
	b, s, err := a.x.check(t)
	if err != nil {
		return false, false, err
	}
	if b || s {
		return false, false, errf("abs", "argument must be numeric")
	}
	return false, false, nil
}

func (a absFn) evalNum(f frame, lo, hi int, out []float64) {
	a.x.evalNum(f, lo, hi, out)
	for i := range out[:hi-lo] {
		out[i] = math.Abs(out[i])
	}
}

// --- lexer ---

type token struct {
	kind tokKind
	text string
}

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokNum
	tokStr
	tokIdent
	tokOp
	tokLParen
	tokRParen
	tokComma
)

// lex splits src into tokens; unknown characters become operator tokens the
// parser rejects with a position-bearing error.
func lex(src string) []token {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "("})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")"})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ","})
			i++
		case c == '"' || c == '\'':
			q := c
			j := i + 1
			for j < len(src) && src[j] != q {
				j++
			}
			if j >= len(src) {
				toks = append(toks, token{tokOp, src[i:]}) // unterminated: parser errors
				i = len(src)
				break
			}
			toks = append(toks, token{tokStr, src[i+1 : j]})
			i = j + 1
		case c >= '0' && c <= '9' || c == '.' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.' ||
				src[j] == 'e' || src[j] == 'E' ||
				(src[j] == '+' || src[j] == '-') && j > i && (src[j-1] == 'e' || src[j-1] == 'E')) {
				j++
			}
			toks = append(toks, token{tokNum, src[i:j]})
			i = j
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j]})
			i = j
		default:
			// Multi-char operators first.
			for _, op := range []string{"&&", "||", "<=", ">=", "==", "!="} {
				if strings.HasPrefix(src[i:], op) {
					toks = append(toks, token{tokOp, op})
					i += len(op)
					goto next
				}
			}
			toks = append(toks, token{tokOp, string(c)})
			i++
		next:
		}
	}
	return append(toks, token{tokEOF, ""})
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '.' || c == ':'
}

// --- parser (precedence climbing) ---

type exprParser struct {
	toks []token
	pos  int
	src  string
}

func (p *exprParser) peek() token { return p.toks[p.pos] }
func (p *exprParser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *exprParser) eof() bool   { return p.peek().kind == tokEOF }

func (p *exprParser) acceptOp(ops ...string) (string, bool) {
	t := p.peek()
	if t.kind != tokOp {
		return "", false
	}
	for _, op := range ops {
		if t.text == op {
			p.pos++
			return op, true
		}
	}
	return "", false
}

func (p *exprParser) parseOr() (exprNode, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		if _, ok := p.acceptOp("||"); !ok {
			return l, nil
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = boolOp{op: "||", l: l, r: r}
	}
}

func (p *exprParser) parseAnd() (exprNode, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for {
		if _, ok := p.acceptOp("&&"); !ok {
			return l, nil
		}
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = boolOp{op: "&&", l: l, r: r}
	}
}

func (p *exprParser) parseCmp() (exprNode, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	op, ok := p.acceptOp("<", "<=", ">", ">=", "==", "!=")
	if !ok {
		return l, nil
	}
	r, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	return &cmpOp{op: op, l: l, r: r}, nil
}

func (p *exprParser) parseAdd() (exprNode, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.acceptOp("+", "-")
		if !ok {
			return l, nil
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = arithOp{op: op, l: l, r: r}
	}
}

func (p *exprParser) parseMul() (exprNode, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.acceptOp("*", "/")
		if !ok {
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = arithOp{op: op, l: l, r: r}
	}
}

func (p *exprParser) parseUnary() (exprNode, error) {
	if op, ok := p.acceptOp("!", "-"); ok {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryOp{op: op, x: x}, nil
	}
	return p.parsePrimary()
}

func (p *exprParser) parsePrimary() (exprNode, error) {
	t := p.next()
	switch t.kind {
	case tokNum:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errf(t.text, "bad number")
		}
		return numLit{v: v}, nil
	case tokStr:
		return strLit{v: t.text}, nil
	case tokLParen:
		n, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.next().kind != tokRParen {
			return nil, errf(p.src, "missing )")
		}
		return n, nil
	case tokIdent:
		if p.peek().kind != tokLParen {
			return colRef{name: t.text}, nil
		}
		p.next() // (
		var args []exprNode
		for p.peek().kind != tokRParen {
			a, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.peek().kind == tokComma {
				p.next()
			}
		}
		p.next() // )
		switch t.text {
		case "prefix":
			if len(args) != 2 {
				return nil, errf(t.text, "want prefix(<string>, <string>)")
			}
			return prefixFn{s: args[0], pre: args[1]}, nil
		case "under":
			if len(args) != 2 {
				return nil, errf(t.text, "want under(<id>, <root>)")
			}
			return underFn{s: args[0], root: args[1]}, nil
		case "abs":
			if len(args) != 1 {
				return nil, errf(t.text, "want abs(<number>)")
			}
			return absFn{x: args[0]}, nil
		default:
			return nil, errf(t.text, "unknown function (want prefix, under, abs)")
		}
	case tokEOF:
		return nil, errf(p.src, "unexpected end of expression")
	default:
		return nil, errf(t.text, "unexpected token")
	}
}

// columnNames renders a table's schema for error messages.
func columnNames(t *Table) string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.Name
	}
	return strings.Join(names, ", ")
}
