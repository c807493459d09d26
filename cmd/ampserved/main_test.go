package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

var addrRE = regexp.MustCompile(`listening on (\S+)`)

// startMain runs run() with an ephemeral port and returns the bound
// address, the output writer, and the signal channel that stops it.
func startMain(t *testing.T, extra ...string) (addr string, done chan error, sig chan os.Signal) {
	t.Helper()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	sig = make(chan os.Signal, 1)
	done = make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() {
		done <- run(args, pw, sig)
		pw.Close()
	}()

	// The startup banner announces the address; with -restore a
	// restored-state line precedes it, so scan until it appears.
	br := bufio.NewReader(pr)
	var m []string
	for m == nil {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read banner: %v (run may have failed: %v)", err, drainErr(done))
		}
		m = addrRE.FindStringSubmatch(line)
	}
	go func() { // keep the pipe from filling up
		for {
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
		}
	}()
	return m[1], done, sig
}

func drainErr(done chan error) error {
	select {
	case err := <-done:
		return err
	case <-time.After(time.Second):
		return nil
	}
}

func TestRunServesAndShutsDown(t *testing.T) {
	addr, done, sig := startMain(t, "-set", "lockfree", "-map", "refinable",
		"-queue", "recycling", "-counter", "network", "-txn", "off")

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	for _, step := range []struct{ cmd, want string }{
		{"SET 9", "1"}, {"GET 9", "1"}, {"ENQ 5", "OK"}, {"DEQ", "5"}, {"INC", "0"},
		{"HSET greet 1", "1"}, {"HGET greet", "1"}, {"HDEL greet", "1"}, {"HGET greet", "EMPTY"},
	} {
		fmt.Fprintf(conn, "%s\n", step.cmd)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: read: %v", step.cmd, err)
		}
		if got = strings.TrimSuffix(got, "\n"); got != step.want {
			t.Fatalf("%s → %q, want %q", step.cmd, got, step.want)
		}
	}

	sig <- syscall.SIGINT
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after SIGINT")
	}
}

// TestRunServesTransactions boots with the DSTM engine under the backoff
// manager and round-trips a MULTI/EXEC transaction.
func TestRunServesTransactions(t *testing.T) {
	addr, done, sig := startMain(t, "-txn", "dstm", "-cm", "backoff")

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	fmt.Fprintf(conn, "MULTI\nHINCR a 4\nHINCR b -4\nEXEC\nHGET a\nTXSTATS\n")
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i, want := range []string{"OK", "+QUEUED", "+QUEUED", "*2", "4", "-4", "4"} {
		got, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d: read: %v", i, err)
		}
		if got = strings.TrimSuffix(got, "\n"); got != want {
			t.Fatalf("reply %d = %q, want %q", i, got, want)
		}
	}
	txstats, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("TXSTATS: %v", err)
	}
	if !strings.Contains(txstats, "engine=dstm cm=backoff") {
		t.Fatalf("TXSTATS = %q, want dstm/backoff", txstats)
	}

	sig <- syscall.SIGINT
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after SIGINT")
	}
}

func TestRunRejectsBadBackend(t *testing.T) {
	for _, flag := range []string{"-set", "-map", "-txn", "-cm"} {
		err := run([]string{flag, "nope"}, io.Discard, nil)
		if err == nil || !strings.Contains(err.Error(), `"nope"`) {
			t.Fatalf("run %s error = %v, want unknown-backend", flag, err)
		}
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, io.Discard, nil); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
}

// TestFlagsMatchREADME keeps the flag table in README.md honest: the set
// of flags run defines (read off its -h output) and the set the table's
// first column names must be the same set.
func TestFlagsMatchREADME(t *testing.T) {
	var usage strings.Builder
	if err := run([]string{"-h"}, &usage, nil); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage.String(), -1) {
		defined[m[1]] = true
	}
	if len(defined) == 0 {
		t.Fatalf("no flags parsed from -h output:\n%s", usage.String())
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	flagName := regexp.MustCompile("`-([a-z-]+)`")
	for _, row := range regexp.MustCompile("(?m)^\\| (`-[^|]*)\\|").FindAllStringSubmatch(string(readme), -1) {
		for _, m := range flagName.FindAllStringSubmatch(row[1], -1) {
			documented[m[1]] = true
		}
	}

	for name := range defined {
		if !documented[name] {
			t.Errorf("-%s is defined by ampserved but missing from README's flag table", name)
		}
	}
	for name := range documented {
		if !defined[name] {
			t.Errorf("-%s is in README's flag table but ampserved does not define it", name)
		}
	}
}
