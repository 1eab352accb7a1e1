// Command vnsctl drives vnsd's admin HTTP endpoint: the paper's
// operational overrides for when geography picks the wrong exit, and
// the daemon's metrics, traces and routing state.
//
//	vnsctl -admin 127.0.0.1:1792 stats
//	vnsctl force 1.0.32.0/20 10.0.3.1
//	vnsctl exempt 1.0.32.0/20
//	vnsctl static 1.0.32.0/24 10.0.7.1
//	vnsctl show 1.0.32.0/20
//	vnsctl egress-down 10.0.8.1
//	vnsctl egresses
//	vnsctl metrics            # full Prometheus exposition
//	vnsctl metrics fib_       # only fib_* families
//	vnsctl trace              # JSONL dump of the span ring
//	vnsctl trace LON 1.0.32.1 # record + print one route trace
//	vnsctl adaptive           # overrides and damped prefixes
//	vnsctl adaptive paths     # plus per-path delay estimates
//	vnsctl flows              # aggregate flow totals and group modes
//
// The read commands GET their endpoint; every other command is a
// management command, POSTed to /mgmt. An ERR reply prints on stdout
// and exits 1.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"
)

// A read is a subcommand that GETs an admin endpoint. query turns the
// subcommand's arguments into the query string, or reports a usage
// error.
type read struct {
	path  string
	usage string
	query func(args []string) (url.Values, bool)
}

var reads = map[string]read{
	"metrics": {"/metrics", "vnsctl metrics [FAMILY_PREFIX]", func([]string) (url.Values, bool) {
		return nil, true
	}},
	"trace": {"/trace", "vnsctl trace [FROM_POP DST_ADDR]", func(args []string) (url.Values, bool) {
		switch len(args) {
		case 0:
			return nil, true
		case 2:
			return url.Values{"from": {strings.ToUpper(args[0])}, "dst": {args[1]}}, true
		}
		return nil, false
	}},
	"adaptive": {"/adaptive", "vnsctl adaptive [paths]", func(args []string) (url.Values, bool) {
		switch {
		case len(args) == 0:
			return nil, true
		case len(args) == 1 && args[0] == "paths":
			return url.Values{"paths": {"1"}}, true
		}
		return nil, false
	}},
	"flows": {"/flows", "vnsctl flows", func(args []string) (url.Values, bool) {
		return nil, len(args) == 0
	}},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is vnsctl with its arguments and output streams; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("vnsctl", flag.ContinueOnError)
	flags.SetOutput(stderr)
	admin := flags.String("admin", "127.0.0.1:1792", "vnsd admin HTTP address")
	timeout := flags.Duration("timeout", 5*time.Second, "HTTP timeout")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if flags.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: vnsctl [-admin host:port] <command> [args...]")
		fmt.Fprintln(stderr, "commands: force unforce exempt unexempt static unstatic egress-down egress-up show egresses stats metrics trace adaptive flows")
		return 2
	}
	name, rest := flags.Arg(0), flags.Args()[1:]

	u := url.URL{Scheme: "http", Host: *admin, Path: "/mgmt"}
	method, cmd := http.MethodPost, strings.Join(flags.Args(), " ")
	if r, ok := reads[name]; ok {
		q, ok := r.query(rest)
		if !ok {
			fmt.Fprintln(stderr, "usage: "+r.usage)
			return 2
		}
		method, u.Path, u.RawQuery, cmd = http.MethodGet, r.path, q.Encode(), ""
	}
	resp, body, err := call(method, u.String(), cmd, *timeout)
	if err != nil {
		fmt.Fprintf(stderr, "vnsctl: %v\n", err)
		return 1
	}
	switch {
	case resp.StatusCode == http.StatusBadRequest && u.Path == "/mgmt":
		fmt.Fprint(stdout, body) // the interpreter's ERR reply
		return 1
	case resp.StatusCode != http.StatusOK:
		fmt.Fprintf(stderr, "vnsctl: %s: %s\n", u.String(), strings.TrimSpace(body))
		return 1
	}

	// Surface trace-ring evictions on stderr so stdout stays valid
	// JSONL: a nonzero dropped count means the dump has holes burst
	// traffic evicted before it could be read.
	if d := resp.Header.Get("X-Trace-Dropped"); d != "" && d != "0" {
		fmt.Fprintf(stderr, "vnsctl: trace dropped=%s spans evicted from the ring before this dump\n", d)
	}
	if name == "metrics" && len(rest) > 0 {
		body = families(body, rest[0])
	}
	fmt.Fprint(stdout, body)
	return 0
}

// call sends one request to the admin endpoint and returns the response
// with its body read.
func call(method, u, body string, timeout time.Duration) (*http.Response, string, error) {
	req, err := http.NewRequest(method, u, strings.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	resp, err := (&http.Client{Timeout: timeout}).Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, string(b), err
}

// families keeps the exposition lines of the families whose name starts
// with prefix, their comment lines included, so the output stays valid
// exposition text.
func families(exposition, prefix string) string {
	var b strings.Builder
	sc := bufio.NewScanner(strings.NewReader(exposition))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		name := line
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name = rest
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name = rest
		}
		if strings.HasPrefix(name, prefix) {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}
