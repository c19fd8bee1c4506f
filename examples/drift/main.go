// Drift: watch the serving daemon detect a shifted address population and
// rotate to a fresh model on its own.
//
// The paper models a snapshot of an operator's addressing plan, but
// operators change plans over time — a served model goes stale. This
// program runs the full feedback loop in process:
//
//  1. trains a model on the S5 archetype (a server network) and uploads
//     it as version 1 of "live";
//  2. streams in-distribution S5 traffic to POST /observe — drift stays
//     near zero and nothing happens;
//  3. switches the "live traffic" to the R2 archetype (a router network
//     with a completely different plan) — the drift detector trips, the
//     daemon retrains on the live window, shadow-evaluates the candidate
//     (its likelihood on live traffic must beat the stale model's), and
//     atomically publishes version 2;
//  4. prints the rotation record and the registry's version list.
//
// The same loop runs against real traffic via `eipserved -auto-refresh`
// with `-ingest-file` or POST /v1/models/{name}/observe; the offline twin
// is `entropyip -drift model.json -in today.txt`.
//
// Run it with:
//
//	go run ./examples/drift
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"entropyip"
)

func main() {
	// --- Server with the refresh loop enabled. ---
	dir, err := os.MkdirTemp("", "eip-drift-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	reg, err := entropyip.OpenRegistry(dir, 8)
	if err != nil {
		log.Fatal(err)
	}
	handler := entropyip.NewServeHandler(reg, entropyip.ServeOptions{
		Refresh: entropyip.RefreshOptions{
			AutoRefresh:   true,
			EvaluateEvery: 512,
			Ingest:        entropyip.IngestConfig{WindowSize: 4096},
			Drift:         entropyip.DriftConfig{Enter: 0.15, Consecutive: 2, MinWindow: 256},
		},
		// At the default Info level the log carries the refresh loop's
		// events (drift entered, rotated, shadow rejections); successful
		// requests log at Debug and are left out.
		Logger: slog.New(slog.NewTextHandler(os.Stdout, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("serving on", base)

	// --- 1. Train on S5 and publish as "live" v1. ---
	s5, err := entropyip.Synthesize("S5", 12000, 1)
	if err != nil {
		log.Fatal(err)
	}
	model, err := entropyip.Analyze(s5[:2000], entropyip.Options{})
	if err != nil {
		log.Fatal(err)
	}
	raw, err := json.Marshal(model)
	if err != nil {
		log.Fatal(err)
	}
	var put entropyip.PutModelResponse
	request(base, "PUT", "/v1/models/live", entropyip.PutModelRequest{Model: raw}, &put)
	fmt.Printf("published live v%d trained on %d S5 addresses\n\n", put.Info.Version, put.Info.TrainCount)

	// --- 2. In-distribution traffic: drift stays quiet. ---
	fmt.Println("streaming in-distribution S5 traffic...")
	observe(base, s5[2000:4000])
	printStatus(base)

	// --- 3. The operator's plan changes: live traffic is now R2. ---
	r2, err := entropyip.Synthesize("R2", 12000, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nplan change! streaming R2 traffic...")
	for i := 0; i < len(r2) && !rotatedOnce(base); i += 512 {
		end := i + 512
		if end > len(r2) {
			end = len(r2)
		}
		observe(base, r2[i:end])
	}

	// Wait for the background retrain + rotation to land.
	deadline := time.Now().Add(2 * time.Minute)
	for !rotatedOnce(base) {
		if time.Now().After(deadline) {
			log.Fatal("no rotation within two minutes")
		}
		time.Sleep(100 * time.Millisecond)
	}
	st := status(base)
	fmt.Printf("\nrotated to v%d: mean log-likelihood %.2f -> %.2f on a %d-address live window\n",
		st.LastRotation.Version, st.LastRotation.StaleMeanLL, st.LastRotation.FreshMeanLL, st.LastRotation.Window)
	printStatus(base)

	// --- 4. The registry now serves the fresh model to new requests. ---
	resp, err := http.Get(base + "/v1/models/live")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Latest   entropyip.ModelInfo   `json:"latest"`
		Versions []entropyip.ModelInfo `json:"versions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nregistry: latest is v%d (trained on %d live addresses); %d versions kept:\n",
		info.Latest.Version, info.Latest.TrainCount, len(info.Versions))
	for _, v := range info.Versions {
		fmt.Printf("  v%d: %d training addresses, %d segments\n", v.Version, v.TrainCount, v.Segments)
	}
}

// request issues one JSON request and decodes the JSON answer into out.
func request(base, method, path string, body, out interface{}) {
	var payload strings.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			log.Fatal(err)
		}
		payload = *strings.NewReader(string(raw))
	}
	req, err := http.NewRequest(method, base+path, &payload)
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			log.Fatal(err)
		}
	}
}

// observe streams addresses to POST /observe as plain NDJSON lines (the
// same format `curl --data-binary @addrs.txt` would send).
func observe(base string, addrs []entropyip.Addr) {
	var b strings.Builder
	for _, a := range addrs {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	resp, err := http.Post(base+"/v1/models/live/observe", "application/x-ndjson", strings.NewReader(b.String()))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var or entropyip.ObserveResponse
	if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("observe: HTTP %d", resp.StatusCode)
	}
}

func status(base string) entropyip.DriftStatus {
	resp, err := http.Get(base + "/v1/models/live/drift")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var st entropyip.DriftStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	return st
}

func rotatedOnce(base string) bool { return status(base).Rotations >= 1 }

func printStatus(base string) {
	st := status(base)
	score := 0.0
	if st.LastVerdict != nil {
		score = st.LastVerdict.Report.Score
	}
	fmt.Printf("  drift status: window=%d evaluations=%d score=%.3f drifting=%v rotations=%d\n",
		st.Ingest.Window, st.Evaluations, score, st.Drifting, st.Rotations)
}
