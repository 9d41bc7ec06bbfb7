// Command txmod is an interactive shell for the transaction modification
// subsystem: declare relations and rules, submit transactions (watching how
// they are modified), and query the database. Commands end with a line
// containing only ";;".
//
//	> relation beer(name string, type string, brewery string, alcohol int) ;;
//	> constraint R1: forall x (x in beer implies x.alcohol >= 0) ;;
//	> rule R2: if not ... then ... ;;
//	> begin insert(beer, values[("a","b","c",1)]); end ;;
//	> explain begin ... end ;;
//	> query select(beer, alcohol > 3) ;;
//	> rules ;;   triggers ;;   validate ;;   status ;;   help ;;   quit ;;
package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"repro"
)

func main() {
	db := repro.Open(nil)
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1024*1024), 1024*1024)
	fmt.Println("txmod — transaction modification shell (help ;; for commands)")

	var buf []string
	prompt := func() { fmt.Print("> ") }
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if strings.HasSuffix(trimmed, ";;") {
			buf = append(buf, strings.TrimSuffix(trimmed, ";;"))
			cmd := strings.TrimSpace(strings.Join(buf, "\n"))
			buf = nil
			if cmd != "" {
				if quit := execute(db, cmd); quit {
					return
				}
			}
			prompt()
			continue
		}
		buf = append(buf, line)
	}
}

func execute(db *repro.DB, cmd string) (quit bool) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Printf("error: %v\n", r)
		}
	}()
	head := strings.ToLower(firstWord(cmd))
	switch head {
	case "quit", "exit":
		return true
	case "help":
		fmt.Println(`commands (terminate with ";;"):
  relation NAME(attr type, ...)     declare a relation
  constraint NAME: <CL formula>     declare an aborting constraint
  rule NAME: <RL rule>              declare a full rule (when/if not/then)
  begin ... end                     submit a transaction
  explain begin ... end             show the modified transaction, do not run
  query <algebra expr>              evaluate an expression
  rules / triggers / validate       inspect the rule set
  status                            relations and cardinalities
  quit`)
	case "relation":
		report(db.CreateRelation(cmd))
	case "constraint":
		name, body, err := splitNameColon(cmd, "constraint")
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		report(db.DefineConstraint(name, body))
	case "rule":
		name, body, err := splitNameColon(cmd, "rule")
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		report(db.DefineRule(name, body))
	case "begin":
		res, err := db.Submit(cmd)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if res.Committed {
			fmt.Printf("committed (+%d/-%d tuples; %d rules fired)\n",
				res.Inserted, res.Deleted, len(res.Report.RulesTriggered))
		} else {
			fmt.Printf("ABORTED: %s\n", res.Reason)
		}
	case "explain":
		text, rep, err := db.Explain(strings.TrimSpace(strings.TrimPrefix(cmd, "explain")))
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("depth %d, %d -> %d statements:\n%s\n", rep.Depth, rep.OriginalStmts, rep.FinalStmts, text)
	case "query":
		rows, err := db.Query(strings.TrimSpace(strings.TrimPrefix(cmd, "query")))
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println(strings.Join(rows.Columns, " | "))
		for _, r := range rows.Data {
			parts := make([]string, len(r))
			for i, v := range r {
				parts[i] = fmt.Sprint(v)
			}
			fmt.Println(strings.Join(parts, " | "))
		}
		fmt.Printf("(%d rows)\n", len(rows.Data))
	case "rules":
		for _, n := range db.RuleNames() {
			prog, _ := db.EnforcementProgram(n)
			fmt.Printf("rule %s:\n%s", n, prog)
		}
	case "triggers":
		for _, n := range db.RuleNames() {
			t, _ := db.RuleTriggers(n)
			fmt.Printf("%s: %s\n", n, t)
		}
	case "validate":
		if err := db.ValidateRules(); err != nil {
			fmt.Println(err)
		} else {
			fmt.Println("triggering graph is acyclic")
		}
	case "status":
		fmt.Print(db.String())
	default:
		fmt.Printf("unknown command %q (help ;;)\n", head)
	}
	return false
}

func firstWord(s string) string {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return ""
	}
	return fields[0]
}

func splitNameColon(cmd, keyword string) (name, body string, err error) {
	rest := strings.TrimSpace(strings.TrimPrefix(cmd, keyword))
	colon := strings.Index(rest, ":")
	if colon < 0 {
		return "", "", fmt.Errorf("expected '%s NAME: ...'", keyword)
	}
	return strings.TrimSpace(rest[:colon]), strings.TrimSpace(rest[colon+1:]), nil
}

func report(err error) {
	if err != nil {
		fmt.Println("error:", err)
	} else {
		fmt.Println("ok")
	}
}
