package txn

import (
	"strings"

	"repro/internal/algebra"
)

// Transaction is an extended relational algebra program enclosed in
// transaction brackets.
type Transaction struct {
	Program algebra.Program
	// Label is an optional identifier used in diagnostics and reports.
	Label string
}

// New builds a transaction from statements (the bracketing operator ↑ of
// Algorithm 5.1 applied to a program literal).
func New(stmts ...algebra.Stmt) *Transaction {
	return &Transaction{Program: algebra.Program(stmts)}
}

// Bracket converts a program into a transaction (the paper's ↑ operator).
func Bracket(p algebra.Program) *Transaction { return &Transaction{Program: p} }

// Debracket returns the transaction's program (the paper's ↓ operator).
func (t *Transaction) Debracket() algebra.Program { return t.Program }

// Clone returns a deep copy of the transaction whose AST can be re-checked
// and modified independently.
func (t *Transaction) Clone() *Transaction {
	return &Transaction{Program: algebra.CloneProgram(t.Program), Label: t.Label}
}

// String renders the transaction with begin/end brackets.
func (t *Transaction) String() string {
	var sb strings.Builder
	sb.WriteString("begin\n")
	for _, s := range t.Program {
		sb.WriteString("  ")
		sb.WriteString(s.String())
		sb.WriteString(";\n")
	}
	sb.WriteString("end")
	return sb.String()
}
