// Package cli is the frame every cmd/ tool stands on, so that each is
//
//	func main() { os.Exit(tool(os.Stdout, os.Stderr).Run(os.Args[1:])) }
//
// around a Tool a test can build and run, with one exit-status convention: 0
// for success and for -h, 2 for a command line the tool cannot act on (the
// flag package's message and usage, or one "tool: message" line for what its
// declaration refuses), 1 for any other failure, reported as exactly one
// "tool: message" line on stderr.
package cli

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Flags returns the flag set of the named tool, reporting to stderr.
func Flags(tool string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// A Tool is a command: its flags, the contract its command line keeps, and
// the body that runs on one that keeps it. Run refuses, naming the first it
// finds, a given flag whose value Values or Check refuses, two set flags of
// one Modes group, a set flag a rule of Reads leaves unread, and positional
// args other than Args takes. A flag is set when the command line gives it a
// value other than "" or false.
type Tool struct {
	Flags  *flag.FlagSet
	Values map[string][]string                 // every value a flag takes
	Check  map[string]func(value string) error // why a flag's value is refused
	// Selects maps a flag to what each of its values selects where one stands
	// for several (surfer-bench's -experiment all); Reads' In is matched
	// against that.
	Selects map[string]func(value string) []string
	Reads   []Cond
	Modes   []Modes
	Args    map[string]Arity // under each mode flag, or "" when none is set; absent, none
	Body    func(positional []string) error
}

// A Cond declares that a tool reads Flags only when By holds one of In or,
// with no In, only when By is set or, with Not, only when it is not. Its set
// flags are refused together, as Say if given, %s standing for them and
// their values.
type Cond struct {
	Flags []string
	By    string
	In    []string
	Not   bool
	Say   string
}

// Only declares that flag is read only when by holds one of in, or is set.
func Only(flag, by string, in ...string) Cond { return Cond{Flags: []string{flag}, By: by, In: in} }

// Unless declares that flags are read only when by is not set.
func Unless(by string, flags ...string) Cond { return Cond{Flags: flags, By: by, Not: true} }

// Modes are flags a call may set only one of, refused as Say, %s standing
// for the set ones joined by Sep.
type Modes struct {
	Flags    []string
	Sep, Say string
}

// An Arity is how many positional args a mode takes, -1 for any; Say words
// the refusal of another count, %s standing for the args given (needed
// when N > 0).
type Arity struct {
	N   int
	Say string
}

// Within refuses a number outside [lo, hi], and what is not a number;
// NonNegative and Positive refuse one below 0 and below 1.
func Within(lo, hi float64) func(string) error {
	return within(lo, hi, fmt.Sprintf("out of range [%g, %g]", lo, hi))
}

var NonNegative, Positive = within(0, math.Inf(1), "must not be negative"), within(1, math.Inf(1), "must be positive")

func within(lo, hi float64, reason string) func(string) error {
	return func(s string) error {
		if v, err := strconv.ParseFloat(s, 64); err != nil || !(v >= lo && v <= hi) {
			return errors.New(reason)
		}
		return nil
	}
}

// Parse is the check of a flag whose value parse reads.
func Parse[T any](parse func(string) (T, error)) func(string) error {
	return func(s string) error { _, err := parse(s); return err }
}

type usageError struct{ error }

// Usage marks err as the command line's fault: Run exits 2 on it, not 1.
func Usage(err error) error { return usageError{err} }

// Failed is returned by a body that has already said on stdout what went
// wrong — a gate's verdict is the tool's output, not its failure: Run exits
// 1 and prints nothing more.
var Failed = errors.New("failed")

// Run parses args into the tool's flags, refuses what its declaration
// refuses, calls its body with the positional arguments and turns the
// outcome into the exit status. Flags may follow positionals ("-compare
// old.json new.json -threshold 5%"): the flag package stops at the first
// one, so parsing resumes after each.
func (t Tool) Run(args []string) int {
	fs := t.Flags
	var positional []string
	for {
		if err := fs.Parse(args); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return 2
		}
		if args = fs.Args(); len(args) == 0 {
			break
		}
		positional, args = append(positional, args[0]), args[1:]
	}
	err := t.refuse(positional)
	if err == nil {
		err = t.Body(positional)
	}
	if err == nil {
		return 0
	}
	if !errors.Is(err, Failed) {
		fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	}
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// refuse returns the first breach of the tool's declaration.
func (t Tool) refuse(positional []string) error {
	var errs []error
	t.Flags.Visit(func(f *flag.Flag) { errs = append(errs, t.check(f.Name, f.Value.String())) })
	for _, m := range t.Modes {
		if set := t.setOf(m.Flags...); len(set) > 1 {
			errs = append(errs, refusal(m.Say, "-"+strings.Join(set, m.Sep+"-")))
		}
	}
	for _, c := range t.Reads {
		errs = append(errs, t.unread(c))
	}
	return cmp.Or(append(errs, t.arity(positional))...)
}

func (t Tool) check(name, value string) error {
	if values, ok := t.Values[name]; ok && !slices.Contains(values, value) {
		return Usage(fmt.Errorf("-%s %s: want %s or %s", name, value, strings.Join(values[:len(values)-1], ", "), values[len(values)-1]))
	}
	if check := t.Check[name]; check != nil {
		if err := check(value); err != nil {
			return Usage(fmt.Errorf("-%s %s: %v", name, value, err))
		}
	}
	return nil
}

func (t Tool) value(name string) string { return t.Flags.Lookup(name).Value.String() }

// setOf returns those of names the command line gives a value other than ""
// or false.
func (t Tool) setOf(names ...string) []string {
	set := map[string]bool{}
	t.Flags.Visit(func(f *flag.Flag) { set[f.Name] = f.Value.String() != "" && f.Value.String() != "false" })
	return slices.DeleteFunc(slices.Clone(names), func(name string) bool { return !set[name] })
}

// unread refuses c's set flags if c leaves them unread.
func (t Tool) unread(c Cond) error {
	by, selected := t.value(c.By), []string{t.value(c.By)}
	if sel := t.Selects[c.By]; sel != nil {
		selected = sel(by)
	}
	set, say := t.setOf(c.Flags...), c.Say
	switch bySet := len(t.setOf(c.By)) > 0; {
	case len(set) == 0:
		return nil
	case c.In != nil && !slices.ContainsFunc(c.In, func(v string) bool {
		return slices.ContainsFunc(selected, func(s string) bool { return strings.EqualFold(v, s) })
	}):
		say = cmp.Or(say, fmt.Sprintf("%%s: -%s %s does not read it (only %s)", c.By, by, strings.Join(c.In, ", ")))
	case c.In == nil && !c.Not && !bySet:
		say = cmp.Or(say, "%s: only -"+c.By+" reads it")
	case c.Not && bySet:
		say = cmp.Or(say, "%s: -"+c.By+" does not read it")
	default:
		return nil
	}
	if len(set) > 1 {
		say = strings.Replace(say, "read it", "read them", 1)
	}
	for i, name := range set {
		set[i] = "-" + name + " " + t.value(name)
	}
	return refusal(say, strings.Join(set, ", "))
}

// arity refuses positional args other than the set mode takes.
func (t Tool) arity(positional []string) error {
	mode := ""
	for name := range t.Args {
		if name != "" && len(t.setOf(name)) > 0 {
			mode = name
		}
	}
	return t.Args[mode].refuse(positional)
}

func (a Arity) refuse(positional []string) error {
	if a.N < 0 || len(positional) == a.N {
		return nil
	}
	return refusal(cmp.Or(a.Say, "positional args are not read: %s"), strings.Join(positional, " "))
}

func refusal(say, subjects string) error {
	return Usage(errors.New(strings.Replace(say, "%s", subjects, 1)))
}

// WriteFile creates path, hands it to write and closes it, reporting the
// first error.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
