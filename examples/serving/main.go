// Serving: run the Entropy/IP model-serving API end to end, in process.
//
// The program starts the eipserved HTTP handler on a loopback listener
// backed by a temporary registry directory, then acts as a client:
//
//  1. trains a model locally on a synthesized server network and uploads
//     it, then has the server train a second version from raw addresses;
//  2. lists the registry;
//  3. issues a conditional-probability browse query and checks the
//     distributions match Model.Browse computed locally;
//  4. streams 10,000 candidate addresses as NDJSON, consuming them line
//     by line off the wire;
//  5. checks liveness on /healthz and counts the routes served so far
//     from the /metrics exposition.
//
// Run it with:
//
//	go run ./examples/serving
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"entropyip"
)

func main() {
	// --- Server side: registry + HTTP handler on a loopback port. ---
	dir, err := os.MkdirTemp("", "eipserved-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	reg, err := entropyip.OpenRegistry(dir, 8)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: entropyip.NewServeHandler(reg, entropyip.ServeOptions{})}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("serving on", base)

	// --- 1a. Train locally and upload the serialized model. ---
	addrs, err := entropyip.Synthesize("S5", 20000, 1)
	if err != nil {
		log.Fatal(err)
	}
	model, err := entropyip.Analyze(addrs[:2000], entropyip.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rawModel, err := json.Marshal(model)
	if err != nil {
		log.Fatal(err)
	}
	var put entropyip.PutModelResponse
	request("PUT", base+"/v1/models/s5", entropyip.PutModelRequest{Model: rawModel}, &put)
	fmt.Printf("uploaded model s5 v%d (%d training addresses, %d segments)\n",
		put.Info.Version, put.Info.TrainCount, put.Info.Segments)

	// --- 1b. Let the server train the next version from raw addresses. ---
	lines := make([]string, 0, 2000)
	for _, a := range addrs[2000:4000] {
		lines = append(lines, a.String())
	}
	request("PUT", base+"/v1/models/s5", entropyip.PutModelRequest{Addresses: lines}, &put)
	fmt.Printf("server trained s5 v%d from %d posted addresses\n", put.Info.Version, len(lines))

	// --- 2. List models. ---
	var list entropyip.ListModelsResponse
	request("GET", base+"/v1/models", nil, &list)
	for _, info := range list.Models {
		fmt.Printf("registry: %s v%d (%d bytes on disk)\n", info.Name, info.Version, info.SizeBytes)
	}

	// --- 3. Browse v1 and verify against the local model. ---
	var browse entropyip.BrowseResponse
	request("POST", base+"/v1/models/s5/browse", entropyip.BrowseRequest{Version: 1}, &browse)
	direct, err := model.Browse(nil)
	if err != nil {
		log.Fatal(err)
	}
	for i, d := range direct {
		for k, e := range d.Entries {
			if diff := math.Abs(browse.Distributions[i].Entries[k].Prob - e.Prob); diff > 1e-12 {
				log.Fatalf("browse mismatch at %s/%s: %v", d.Label, e.Code, diff)
			}
		}
	}
	fmt.Printf("browse: %d segment distributions match Model.Browse exactly\n", len(browse.Distributions))
	top := browse.Distributions[len(browse.Distributions)-1]
	fmt.Printf("  e.g. segment %s:", top.Label)
	for i, e := range top.Entries {
		if i == 4 {
			fmt.Print(" ...")
			break
		}
		fmt.Printf(" %s=%.0f%%", e.Code, e.Prob*100)
	}
	fmt.Println()

	// --- 4. Stream 10k candidates as NDJSON. ---
	// An explicit seed makes the stream reproducible; omit it (nil) to let
	// the server derive one and echo it in the X-Seed response header.
	seed := int64(42)
	genReq, _ := json.Marshal(entropyip.GenerateRequest{Count: 10000, Seed: &seed, Version: 1})
	resp, err := http.Post(base+"/v1/models/s5/generate", "application/json", bytes.NewReader(genReq))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("generate: status %d", resp.StatusCode)
	}
	count := 0
	var first, last string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var item entropyip.GenerateItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			log.Fatal(err)
		}
		if count == 0 {
			first = item.Addr
		}
		last = item.Addr
		count++
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed %d candidates over HTTP (first %s, last %s)\n", count, first, last)

	// --- 5. Liveness, then the request counters from /metrics. ---
	var health entropyip.HealthResponse
	request("GET", base+"/healthz", nil, &health)
	fmt.Printf("healthz: %s (version %s), %d routes served\n", health.Status, health.Version, servedRoutes(base))
}

// servedRoutes counts the routes whose eip_http_requests_total series in
// the /metrics exposition is nonzero.
func servedRoutes(base string) int {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("metrics: status %d", resp.StatusCode)
	}
	n := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		// A sample is `name{labels} value`; route labels contain spaces,
		// so the value is what follows the last one.
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || !strings.HasPrefix(line, "eip_http_requests_total{") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil && v > 0 {
			n++
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	return n
}

// request issues one JSON request and decodes the JSON response into out.
func request(method, url string, body, out interface{}) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			log.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		log.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, buf.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			log.Fatal(err)
		}
	}
}
