package simd

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestKernelsAreVEXClean fails on every legacy-SSE instruction that names
// an X or Y register inside a TEXT block that also issues a VEX one. On
// some hosts mixing the two encodings costs each call hundreds of
// nanoseconds before its first vector instruction, so a VEX kernel moves
// scalars in and out of vector registers with VMOVQ/VMOVD. Macros are
// expanded where they are used, nested ones included. A block with no VEX
// instruction (the float min/max folds and their MINMAX_F64_STEP) may use
// legacy SSE.
func TestKernelsAreVEXClean(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range legacySSEInVEXBlocks(file, string(src)) {
			t.Error(bad)
		}
	}
}

// asmInstr is one instruction after macro expansion: its mnemonic, its
// operands, and where it was written (the use line, then each macro it
// came through).
type asmInstr struct {
	op, args, at string
}

type asmMacro struct {
	params []*regexp.Regexp // each parameter as a whole word
	body   []string         // one statement per line
	at     []string         // file:line of each body line
}

var (
	vecReg    = regexp.MustCompile(`\b[XY]([0-9]|1[0-5])\b`)
	macroHead = regexp.MustCompile(`^#define\s+(\w+)(\(([^)]*)\))?`)
	asmLabel  = regexp.MustCompile(`^\w+:`)
)

// legacySSEInVEXBlocks parses one Go assembler file and reports each
// legacy-SSE vector instruction of a TEXT block that has a VEX one.
func legacySSEInVEXBlocks(file, src string) []string {
	macros := map[string]*asmMacro{}
	var (
		bad    []string
		block  string
		instrs []asmInstr
		def    *asmMacro // the #define being continued, if any
	)
	flush := func() {
		vex := false
		for _, in := range instrs {
			vex = vex || strings.HasPrefix(in.op, "V")
		}
		for _, in := range instrs {
			if vex && !strings.HasPrefix(in.op, "V") && vecReg.MatchString(in.args) {
				bad = append(bad, fmt.Sprintf("%s: %s %s: legacy SSE in %s, which issues VEX instructions", in.at, in.op, in.args, block))
			}
		}
		instrs = nil
	}
	var expand func(stmt, at string)
	expand = func(stmt, at string) {
		if loc := asmLabel.FindStringIndex(stmt); loc != nil {
			stmt = strings.TrimSpace(stmt[loc[1]:])
		}
		if stmt == "" {
			return
		}
		name := stmt
		if i := strings.IndexAny(stmt, " \t("); i >= 0 {
			name = stmt[:i]
		}
		rest := strings.TrimSpace(stmt[len(name):])
		m := macros[name]
		if m == nil {
			instrs = append(instrs, asmInstr{name, rest, at})
			return
		}
		var actual []string
		if strings.HasPrefix(rest, "(") {
			list, _, _ := strings.Cut(rest[1:], ")")
			for _, a := range strings.Split(list, ",") {
				actual = append(actual, strings.TrimSpace(a))
			}
		}
		for i, line := range m.body {
			for j, p := range m.params {
				if j < len(actual) {
					line = p.ReplaceAllLiteralString(line, actual[j])
				}
			}
			expand(line, fmt.Sprintf("%s (%s, %s)", at, name, m.at[i]))
		}
	}
	for i, raw := range strings.Split(src, "\n") {
		at := fmt.Sprintf("%s:%d", file, i+1)
		line, _, _ := strings.Cut(raw, "//")
		line = strings.TrimSpace(line)
		more := strings.HasSuffix(line, `\`)
		line = strings.TrimSpace(strings.TrimSuffix(line, `\`))
		switch {
		case def != nil:
			if line != "" {
				def.body, def.at = append(def.body, line), append(def.at, at)
			}
		case strings.HasPrefix(line, "#define"):
			h := macroHead.FindStringSubmatch(line)
			def = &asmMacro{}
			for _, p := range strings.Split(h[3], ",") {
				if p = strings.TrimSpace(p); p != "" {
					def.params = append(def.params, regexp.MustCompile(`\b`+p+`\b`))
				}
			}
			macros[h[1]] = def
			if rest := strings.TrimSpace(line[len(h[0]):]); rest != "" {
				def.body, def.at = append(def.body, rest), append(def.at, at)
			}
		case strings.HasPrefix(line, "TEXT"):
			flush()
			block, _, _ = strings.Cut(strings.Fields(line)[1], "(")
		case strings.HasPrefix(line, "#") || block == "":
		default:
			expand(line, at)
		}
		if !more {
			def = nil
		}
	}
	flush()
	return bad
}
