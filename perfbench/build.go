package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// bins are the programs a benchmark run executes, all built from one
// VCS-stamped copy of the sources.
type bins struct {
	worker, figures, netsim string
	// tree is the git tree hash of the built sources: it equals
	// `git rev-parse HEAD^{tree}` of a clean checkout of the same commit.
	tree string
}

// build makes a VCS-stamped build of the worker and of cmd/figures and
// cmd/netsim. Both persistent caches refuse to open in a binary without a
// VCS revision, and the benchmark's checkout need not be a git repository,
// so the sources are copied under out/src and committed there with a fixed
// author and date: the same sources always give the same revision. The
// build is skipped when the sources hash to the previous build's.
func build(root, out string) (bins, error) {
	b := bins{
		worker:  filepath.Join(out, "bin", "worker"),
		figures: filepath.Join(out, "bin", "figures"),
		netsim:  filepath.Join(out, "bin", "netsim"),
	}
	files, err := sourceFiles(root, out)
	if err != nil {
		return b, err
	}
	sum, err := hashFiles(root, files)
	if err != nil {
		return b, err
	}
	src := filepath.Join(out, "src")
	stampPath := filepath.Join(out, "src.sha256")
	if prev, err := os.ReadFile(stampPath); err == nil && string(prev) == sum && exists(b.worker, b.figures, b.netsim) {
		b.tree, err = run(src, "git", "rev-parse", "HEAD^{tree}")
		return b, err
	}
	if err := os.RemoveAll(src); err != nil {
		return b, err
	}
	for _, f := range files {
		if err := copyFile(filepath.Join(root, f), filepath.Join(src, f)); err != nil {
			return b, err
		}
	}
	for _, args := range [][]string{
		{"git", "-c", "init.defaultBranch=main", "init", "-q"},
		{"git", "add", "-A"},
		{"git", "commit", "-q", "--no-verify", "-m", "benchmark source snapshot"},
	} {
		if _, err := run(src, args...); err != nil {
			return b, err
		}
	}
	if b.tree, err = run(src, "git", "rev-parse", "HEAD^{tree}"); err != nil {
		return b, err
	}
	for _, step := range []struct{ dir, out, pkg string }{
		{src, b.figures, "./cmd/figures"},
		{src, b.netsim, "./cmd/netsim"},
		{filepath.Join(src, "perfbench"), b.worker, "./worker"},
	} {
		if _, err := run(step.dir, "go", "build", "-o", step.out, step.pkg); err != nil {
			return b, err
		}
	}
	return b, os.WriteFile(stampPath, []byte(sum), 0o644)
}

// sourceFiles lists what git would commit: tracked and unignored files in
// a git checkout, every file otherwise; never anything under out.
func sourceFiles(root, out string) ([]string, error) {
	var files []string
	if list, err := run(root, "git", "ls-files", "-co", "--exclude-standard"); err == nil {
		for _, f := range strings.Split(list, "\n") {
			p := filepath.Join(root, f)
			if st, err := os.Lstat(p); f != "" && err == nil && st.Mode().IsRegular() && !strings.HasPrefix(p, out+string(filepath.Separator)) {
				files = append(files, f)
			}
		}
		return files, nil
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (p == out || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			files = append(files, rel)
		}
		return nil
	})
	return files, err
}

func hashFiles(root string, files []string) (string, error) {
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func copyFile(from, to string) error {
	if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
		return err
	}
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	st, err := in.Stat()
	if err != nil {
		return err
	}
	out, err := os.OpenFile(to, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, st.Mode().Perm())
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func exists(paths ...string) bool {
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			return false
		}
	}
	return true
}

// gitEnv pins everything a commit hash depends on besides the tree, and
// keeps user and system git configuration out of the build.
var gitEnv = []string{
	"GIT_CONFIG_NOSYSTEM=1", "GIT_CONFIG_GLOBAL=" + os.DevNull,
	"GIT_AUTHOR_NAME=perfbench", "GIT_AUTHOR_EMAIL=perfbench@localhost",
	"GIT_COMMITTER_NAME=perfbench", "GIT_COMMITTER_EMAIL=perfbench@localhost",
	"GIT_AUTHOR_DATE=2000-01-01T00:00:00Z", "GIT_COMMITTER_DATE=2000-01-01T00:00:00Z",
}

// run executes a command in dir and returns its trimmed standard output.
func run(dir string, args ...string) (string, error) {
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), gitEnv...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%s in %s: %v: %s", strings.Join(args, " "), dir, err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(stdout.String()), nil
}
