// Command shield-inspect examines a database directory from the storage
// administrator's (or auditor's) point of view: it classifies files, reads
// the plaintext headers, reports DEK-IDs, and — crucially — scans the raw
// bytes for plaintext leakage, which is the on-disk confidentiality check
// of the threat model.
//
// It also carries the offline corruption scrub (fsck for the database):
// per-block checksum/MAC verification, quarantine of provably corrupt files
// into lost/, and manifest repair.
//
// Usage:
//
//	shield-inspect -dir /var/lib/shield/db
//	shield-inspect -dir /var/lib/shield/db -grep "secret-substring"
//	shield-inspect scrub /var/lib/shield/db           # report only
//	shield-inspect scrub -apply /var/lib/shield/db    # quarantine + repair
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"shield/internal/core"
	"shield/internal/lsm"
	"shield/internal/vfs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "scrub" {
		os.Exit(runScrub(os.Args[2:]))
	}
	var (
		dir  = flag.String("dir", "", "database directory")
		grep = flag.String("grep", "", "scan raw file bytes for this plaintext substring")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "usage: shield-inspect -dir <db-dir> [-grep <plaintext>]")
		os.Exit(2)
	}

	fs := vfs.NewOS()
	entries, err := fs.List(*dir)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-20s %-10s %-12s %-30s\n", "FILE", "SIZE", "KIND", "ENCRYPTION")
	leaks := 0
	for _, e := range entries {
		full := filepath.Join(*dir, e.Name)
		data, err := vfs.ReadFile(fs, full)
		if err != nil {
			log.Printf("%s: %v", e.Name, err)
			continue
		}
		kind := classify(e.Name)
		enc := describeEncryption(data)
		fmt.Printf("%-20s %-10d %-12s %-30s\n", e.Name, e.Size, kind, enc)

		if *grep != "" && bytes.Contains(data, []byte(*grep)) {
			fmt.Printf("  !! PLAINTEXT LEAK: %q found in %s\n", *grep, e.Name)
			leaks++
		}
	}
	if *grep != "" {
		if leaks == 0 {
			fmt.Printf("\nno plaintext occurrences of %q in any stored file\n", *grep)
		} else {
			fmt.Printf("\n%d file(s) leak plaintext\n", leaks)
			os.Exit(1)
		}
	}
}

// runScrub runs the recovery pass an open runs, offline: it loads CURRENT
// and the manifest (failing, as an open would, on a manifest older than the
// epoch CURRENT echoes), verifies every block checksum it can read, decodes
// every live WAL batch, and (with -apply) quarantines provably corrupt
// tables into lost/ and rewrites the MANIFEST around them. A WAL batch that
// does not decode is reported corrupt and left in place, because no open
// can get past it either. It runs keyless: encrypted files whose key it
// does not hold are reported as skipped, never quarantined, and an
// encrypted manifest makes the scrub refuse rather than guess. It exits 1
// when it quarantined a file or found one an open will refuse.
func runScrub(args []string) int {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	apply := fs.Bool("apply", false, "quarantine corrupt files and repair the manifest (default: report only)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: shield-inspect scrub [-apply] <db-dir>")
		return 2
	}
	dir := fs.Arg(0)

	cfg := core.Config{Mode: core.ModeNone, FS: vfs.NewOS()}
	rep, err := core.Scrub(dir, cfg, lsm.Options{Logger: log.Printf}, lsm.ScrubOptions{DryRun: !*apply})
	if err != nil {
		log.Printf("scrub: %v", err)
		return 1
	}
	fmt.Print(rep)
	if !*apply && !rep.Clean() {
		fmt.Println("scrub: report only — rerun with -apply to quarantine and repair")
	}
	if rep.Quarantined > 0 {
		return 1
	}
	for _, f := range rep.Findings {
		if f.Action == lsm.ScrubCorrupt {
			return 1
		}
	}
	return 0
}

func classify(name string) string {
	switch {
	case name == "CURRENT":
		return "current"
	case strings.HasPrefix(name, "MANIFEST-"):
		return "manifest"
	case strings.HasSuffix(name, ".log"):
		return "wal"
	case strings.HasSuffix(name, ".sst"):
		return "sst"
	default:
		return "other"
	}
}

// describeEncryption sniffs the file's header.
func describeEncryption(data []byte) string {
	id, ok := core.DEKIDFromHeader(data)
	switch {
	case ok && id == "":
		return "instance DEK"
	case ok:
		return "per-file DEK " + id
	case core.EncryptedSniffer(data) && !core.IsShieldHeader(data):
		return "legacy EncFS instance DEK (shield-server -migrate)"
	}
	return "plaintext (or foreign format)"
}
