// Command arrows is the proof-script front end to the calculus of
// time-bounded progress statements: it loads a script of premise /
// weaken / compose / relax / subset / check / print lines (see package
// core), binds it to an enumerated Lehmann–Rabin model so that premises
// and derived statements can be model-checked, and prints the results.
//
// With no -script flag it runs the built-in script reproducing the
// Section 6.2 derivation of the paper.
//
// Usage:
//
//	arrows [-n ring] [-k steps-per-window] [-check-premises] [-script file]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dining"
)

// paperScript is the Section 6.2 derivation in proof-script form.
const paperScript = `# Lynch–Saias–Segala, PODC 1994, Section 6.2:
# the five arrows of the Lehmann–Rabin proof, composed into T --13,1/8--> C.
let a3  = premise T --2,1--> RT+C     : Proposition A.3
let a15 = premise RT --3,1--> F+G+P   : Proposition A.15
let a14 = premise F --2,1/2--> G+P    : Proposition A.14
let a11 = premise G --5,1/4--> P      : Proposition A.11
let a1  = premise P --1,1--> C        : Proposition A.1

# Proposition 3.2 weakenings so the chain connects.
let w15 = weaken a15 + C
let w14 = weaken a14 + G+P+C
let w11 = weaken a11 + P+C
let w1  = weaken a1  + C

# Theorem 3.4 composition; the final C∪C is renamed to C (equal sets).
let chain = compose a3 w15 w14 w11 w1
let main = renameto chain C
check main
print main
`

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "arrows:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("arrows", flag.ContinueOnError)
	n := fs.Int("n", 3, "ring size for the bound model")
	k := fs.Int("k", 1, "steps per window for the bound model")
	checkPremises := fs.Bool("check-premises", true, "model-check every premise as it is introduced")
	scriptPath := fs.String("script", "", "proof script file (default: the built-in Section 6.2 derivation)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	script := paperScript
	if *scriptPath != "" {
		data, err := os.ReadFile(*scriptPath)
		if err != nil {
			return err
		}
		script = string(data)
	}

	fmt.Printf("binding model: Lehmann–Rabin n=%d, Unit-Time(k=%d)\n", *n, *k)
	a, err := dining.NewAnalysisOpts(*n, *k, dining.Opts{})
	if err != nil {
		return err
	}
	fmt.Printf("enumerated %d product states\n\n", a.Index.Len())

	sc := &core.Script[dining.PState]{
		Registry:      a.Sets(),
		Schema:        a.Schema,
		Universe:      a.Universe,
		Model:         a.MDP,
		Index:         a.Index,
		CheckPremises: *checkPremises,
	}
	out, err := sc.Run(script)
	fmt.Print(out)
	return err
}
