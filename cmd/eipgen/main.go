// Command eipgen generates candidate target addresses (or /64 prefixes)
// from a trained Entropy/IP model, optionally conditioned on particular
// segment values — the paper's §5.5/§5.6 generation step.
//
// Usage:
//
//	eipgen -model model.json -n 100000 -o candidates.txt
//	eipgen -model model.json -n 100000 -prefixes -condition B=B2
//	eipgen -server http://farm:8080 -server-model web -n 100000
//
// Generation draws on all cores; the emitted sequence is identical for
// any worker count, so there is no flag for it. With -server the
// model stays on an eipserved farm and candidates stream back over the
// framed binary wire encoding (16 bytes per address; -ndjson switches to
// the text encoding) — the output is identical to generating locally
// from the same model and seed.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"entropyip/internal/core"
	"entropyip/internal/dataset"
	"entropyip/internal/ip6"
	"entropyip/pkg/client"
)

func main() {
	var (
		modelPath = flag.String("model", "", "trained model JSON (from the entropyip command)")
		n         = flag.Int("n", 100000, "number of candidates to generate")
		seed      = flag.Int64("seed", 1, "random seed")
		prefixes  = flag.Bool("prefixes", false, "generate /64 prefixes instead of full addresses")
		condition = flag.String("condition", "", "evidence constraining generation, e.g. \"B=B2,C=C1\"")
		exclude   = flag.String("exclude", "", "file of addresses never to emit (e.g. the training set)")
		outPath   = flag.String("o", "-", "output file ('-' for stdout)")
		server    = flag.String("server", "", "generate remotely on an eipserved instance (base URL) instead of from a local model file")
		srvModel  = flag.String("server-model", "", "model name on the server (with -server)")
		ndjson    = flag.Bool("ndjson", false, "use the NDJSON response encoding instead of binary (with -server)")
	)
	flag.Parse()
	evidence := map[string]string{}
	if *condition != "" {
		for _, part := range strings.Split(*condition, ",") {
			kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
			if len(kv) != 2 {
				fatal(fmt.Errorf("invalid -condition entry %q", part))
			}
			evidence[kv[0]] = kv[1]
		}
	}

	var err error
	out := os.Stdout
	if *outPath != "-" {
		out, err = os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer out.Close()
	}
	w := bufio.NewWriter(out)

	if *server != "" {
		if *srvModel == "" {
			fmt.Fprintln(os.Stderr, "eipgen: -server-model is required with -server")
			os.Exit(2)
		}
		if *exclude != "" {
			fatal(fmt.Errorf("-exclude is local-only; the server manages its own dedup"))
		}
		count, err := generateRemote(w, *server, *srvModel, client.GenerateOptions{
			Count:    *n,
			Seed:     seed,
			Evidence: evidence,
			Prefixes: *prefixes,
			Binary:   !*ndjson,
		})
		if ferr := w.Flush(); err == nil {
			err = ferr
		}
		if err != nil {
			fatal(err)
		}
		report(count, *prefixes)
		return
	}

	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "eipgen: -model or -server is required")
		os.Exit(2)
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		fatal(err)
	}
	model, err := core.Load(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	opts := core.GenerateOptions{Count: *n, Seed: *seed}
	if len(evidence) > 0 {
		opts.Evidence = core.Evidence(evidence)
	}
	if *exclude != "" {
		d, err := dataset.LoadFile(*exclude)
		if err != nil {
			fatal(err)
		}
		opts.Exclude = d.Set()
	}

	// Stream instead of materializing: memory stays bounded by the
	// generator's dedup set however large -n is. Each candidate is
	// append-formatted into one reused line buffer (no fmt, no per-line
	// String allocation), so output cost is the buffered write itself.
	// Flush before reporting a mid-stream error — fatal's os.Exit skips
	// deferred flushes, and an unflushed buffer could truncate the output
	// file mid-line.
	count := 0
	line := make([]byte, 0, 64)
	if *prefixes {
		err = model.GeneratePrefixesStream(opts, func(p ip6.Prefix) bool {
			line = p.AppendString(line[:0])
			line = append(line, '\n')
			_, werr := w.Write(line)
			count++
			return werr == nil
		})
	} else {
		err = model.GenerateStream(opts, func(a ip6.Addr) bool {
			line = a.AppendString(line[:0])
			line = append(line, '\n')
			_, werr := w.Write(line)
			count++
			return werr == nil
		})
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fatal(err)
	}
	report(count, *prefixes)
}

// generateRemote streams candidates from a serving farm through
// pkg/client, writing the same text lines local generation produces.
func generateRemote(w *bufio.Writer, server, model string, opts client.GenerateOptions) (int, error) {
	c := client.New(server, nil)
	// The minted trace ID goes to the server in traceparent; printing it
	// lets the operator pull the request's server-side trace from
	// GET /v1/debug/traces?trace_id=... afterwards.
	ctx, traceID := client.WithTrace(context.Background())
	count := 0
	line := make([]byte, 0, 64)
	var werr error
	res, err := c.Generate(ctx, model, opts, func(e client.Event) bool {
		switch e.Kind {
		case client.KindCandidate:
			if opts.Prefixes {
				line = e.Prefix.AppendString(line[:0])
			} else {
				line = e.Addr.AppendString(line[:0])
			}
			line = append(line, '\n')
			_, werr = w.Write(line)
			count++
			return werr == nil
		case client.KindStreamError:
			werr = fmt.Errorf("server stream failed: %s", e.Err)
			return false
		}
		return true
	})
	if err == nil {
		err = werr
	}
	if err == nil && res != nil && len(res.Seeds) > 0 {
		fmt.Fprintf(os.Stderr, "eipgen: server %s encoding, seed %d, trace %s\n", res.Encoding, res.Seeds[0], traceID)
	}
	return count, err
}

func report(count int, prefixes bool) {
	kind := "addresses"
	if prefixes {
		kind = "/64 prefixes"
	}
	fmt.Fprintf(os.Stderr, "eipgen: generated %d candidate %s\n", count, kind)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eipgen:", err)
	os.Exit(1)
}
