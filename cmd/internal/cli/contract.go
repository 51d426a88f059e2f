package cli

import (
	"bytes"
	"cmp"
	"io"
	"maps"
	"slices"
	"strings"
)

// Contract runs, for every rule of the tool build makes, one command line
// that breaks that rule alone, and reports to t (a *testing.T) each that
// does not exit 2 with nothing on stdout and the rule's own refusal as the
// one line on stderr. A Reads rule's flag is set (to its default, or 1)
// under the first of: its decider left off, 1, and the decider's values in
// Values and in the rules, that leaves it unread; a rule none of those
// breaks is reported. Each Modes group gets its first two flags set, and
// each mode one positional arg more than it takes.
func Contract(t interface{ Errorf(string, ...any) }, build func(stdout, stderr io.Writer) Tool) {
	tool := build(io.Discard, io.Discard)
	parsed := func(args []string) Tool {
		p := build(io.Discard, io.Discard)
		p.Flags.Parse(args)
		return p
	}
	cases := map[string][]string{} // command lines by the refusal each must meet
	for _, c := range tool.Reads {
		bys := append([]string{"", "1"}, tool.Values[c.By]...) // "" leaves the decider off
		for _, d := range tool.Reads {
			if d.By == c.By {
				bys = append(bys, d.In...)
			}
		}
		for _, name := range c.Flags {
			c := c
			c.Flags = []string{name}
			set := "-" + name + "=" + cmp.Or(strings.TrimSuffix(tool.Flags.Lookup(name).DefValue, "false"), "1")
			line := func(by string) []string {
				if by == "" {
					return []string{set}
				}
				return []string{"-" + c.By + "=" + by, set}
			}
			i := slices.IndexFunc(bys, func(by string) bool {
				return (by == "" || tool.check(c.By, by) == nil) && parsed(line(by)).unread(c) != nil
			})
			if i < 0 {
				t.Errorf("-%s: every value of -%s reads it", name, c.By)
				continue
			}
			cases[parsed(line(bys[i])).unread(c).Error()] = line(bys[i])
		}
	}
	for _, m := range tool.Modes {
		cases[refusal(m.Say, "-"+m.Flags[0]+m.Sep+"-"+m.Flags[1]).Error()] = []string{"-" + m.Flags[0] + "=1", "-" + m.Flags[1] + "=1"}
	}
	arities := map[string]Arity{"": {}}
	maps.Copy(arities, tool.Args)
	for mode, a := range arities {
		if a.N >= 0 {
			positional := slices.Repeat([]string{"x"}, a.N+1)
			args := positional
			if mode != "" {
				args = append([]string{"-" + mode + "=1"}, positional...)
			}
			cases[a.refuse(positional).Error()] = args
		}
	}
	for want, args := range cases {
		var stdout, stderr bytes.Buffer
		tool := build(&stdout, &stderr)
		if code := tool.Run(args); code != 2 || stdout.Len() > 0 || stderr.String() != tool.Flags.Name()+": "+want+"\n" {
			t.Errorf("%q: exit %d, stdout %.100q, stderr %q; want exit 2 and %q", strings.Join(args, " "), code, stdout.String(), stderr.String(), want)
		}
	}
}
