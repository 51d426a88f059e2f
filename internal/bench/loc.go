package bench

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"

	"repro/internal/apps"
)

// Table4Row reports the user-defined-function source line counts of one
// application under both primitives (Table 4). PaperHadoop and
// PaperPropagation reproduce the paper's reported numbers for context.
type Table4Row struct {
	App              string
	MapReduceLoC     int
	PropagationLoC   int
	PaperHadoop      int
	PaperHomegrown   int
	PaperPropagation int
}

// table4Apps lists the paper's six applications in its Table 4 order: the
// receiver types of their propagation and MapReduce programs in
// apps.Sources, and the paper's reported counts (Hadoop, home-grown MR,
// propagation).
var table4Apps = []struct {
	app, prop, mr string
	paper         [3]int
}{
	{"VDD", "vddProgram", "vddMR", [3]int{24, 33, 18}},
	{"NR", "nrProgram", "nrMR", [3]int{147, 163, 21}},
	{"RS", "rsProgram", "rsMR", [3]int{152, 168, 22}},
	{"RLG", "rlgProgram", "rlgMR", [3]int{131, 144, 23}},
	{"TC", "tcProgram", "tcMR", [3]int{157, 171, 27}},
	{"TFL", "tflProgram", "tflMR", [3]int{171, 194, 25}},
}

// udf method sets per primitive: the user-authored logic, excluding size
// accounting and associativity glue.
var (
	propagationUDFs = []string{"Init", "Transfer", "TransferVertex", "Combine", "Merge"}
	mapreduceUDFs   = []string{"Map", "Reduce"}
)

// Table4 parses the application sources embedded in apps.Sources and
// counts the lines of each user-defined function body.
func Table4() ([]Table4Row, error) {
	fset := token.NewFileSet()
	names, err := fs.Glob(apps.Sources, "*.go")
	if err != nil {
		return nil, err
	}
	lines := map[string]int{} // "receiver.Method" → line count
	for _, name := range names {
		src, err := apps.Sources.ReadFile(name)
		if err != nil {
			return nil, err
		}
		file, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			return nil, fmt.Errorf("bench: parsing %s: %w", name, err)
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Body != nil {
				lines[receiverName(fn)+"."+fn.Name.Name] = fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
			}
		}
	}
	sum := func(recv string, methods []string) int {
		total := 0
		for _, m := range methods {
			total += lines[recv+"."+m]
		}
		return total
	}
	var rows []Table4Row
	for _, a := range table4Apps {
		prop, mr := sum(a.prop, propagationUDFs), sum(a.mr, mapreduceUDFs)
		if prop == 0 || mr == 0 {
			return nil, fmt.Errorf("bench: no UDFs found for %s in apps.Sources", a.app)
		}
		rows = append(rows, Table4Row{
			App:              a.app,
			MapReduceLoC:     mr,
			PropagationLoC:   prop,
			PaperHadoop:      a.paper[0],
			PaperHomegrown:   a.paper[1],
			PaperPropagation: a.paper[2],
		})
	}
	return rows, nil
}

func receiverName(fn *ast.FuncDecl) string {
	if len(fn.Recv.List) != 1 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// WriteTable4 renders Table 4.
func WriteTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table 4: Source code lines in user-defined functions")
	fmt.Fprintf(w, "%-22s", "Engine")
	for _, r := range rows {
		fmt.Fprintf(w, "%7s", r.App)
	}
	fmt.Fprintf(w, "\n%-22s", "MapReduce (ours)")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d", r.MapReduceLoC)
	}
	fmt.Fprintf(w, "\n%-22s", "Propagation (ours)")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d", r.PropagationLoC)
	}
	fmt.Fprintf(w, "\n%-22s", "Hadoop (paper)")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d", r.PaperHadoop)
	}
	fmt.Fprintf(w, "\n%-22s", "Homegrown MR (paper)")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d", r.PaperHomegrown)
	}
	fmt.Fprintf(w, "\n%-22s", "Propagation (paper)")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d", r.PaperPropagation)
	}
	fmt.Fprintln(w)
}
