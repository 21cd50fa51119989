package cntr

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"cntr/internal/container"
)

var updateTranscript = flag.Bool("update", false, "rewrite testdata/attach_transcript.golden from this run")

// TestAttachTranscriptGolden attaches to one container of every engine,
// once with a fat container's tools and once with the host's, and pins
// byte for byte what the session shows: the hostname, its mount table,
// ps, the application's /proc/1/mounts, and the MAC profile and
// effective capabilities /proc reports for the application and for the
// session itself, which must be the profile and capabilities it was
// given. /proc/<pid>/ns/* is left out: its ids come from a
// counter every namespace in the process draws from.
func TestAttachTranscriptGolden(t *testing.T) {
	h := NewHost()
	appImg, err := container.BuildImage("app", "v1", container.ImageConfig{
		Cmd: []string{"/bin/app", "--serve"},
		Env: []string{"PATH=/bin", "APP=1"},
	}, container.LayerSpec{
		ID: "app-layer",
		Files: []container.FileSpec{
			{Path: "/bin/app", Size: 100, Executable: true},
			{Path: "/etc/hostname", Content: []byte("app\n")},
			{Path: "/etc/passwd", Content: []byte("app:x:100:100::/:/bin/false\n")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	toolsImg, err := container.BuildImage("tools", "v1", container.ImageConfig{
		Cmd: []string{"/bin/sh"},
		Env: []string{"PATH=/usr/bin:/bin"},
	}, container.LayerSpec{
		ID: "tools-layer",
		Files: []container.FileSpec{
			{Path: "/bin/sh", Size: 800, Executable: true},
			{Path: "/usr/bin/gdb", Size: 5000, Executable: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	engines := []string{"docker", "lxc", "rkt", "systemd-nspawn"}
	start := func(name, engine string, img *container.Image) *container.Container {
		c, err := h.Runtime.Create(name, img, container.CreateOpts{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Runtime.Start(c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	start("tools", "docker", toolsImg)
	apps := make([]*container.Container, len(engines))
	for i, engine := range engines {
		apps[i] = start("app-"+engine, engine, appImg)
	}

	var got bytes.Buffer
	for i := range engines {
		for _, fat := range []string{"tools", ""} {
			sess, err := Attach(h, Options{Container: apps[i].Name, Fat: fat})
			if err != nil {
				t.Fatalf("attach %s (fat %q): %v", apps[i].Name, fat, err)
			}
			fmt.Fprintf(&got, "=== %s fat=%q engine=%s\n", apps[i].Name, fat, sess.Context.Engine)
			pid, self := apps[i].MainPID, sess.Proc.PID
			for _, cmd := range []string{"hostname", "mount", "ps", "cat /proc/1/mounts",
				fmt.Sprintf("cat /proc/%d/attr_current", pid),
				fmt.Sprintf("cat /proc/%d/attr_current", self)} {
				out, err := sess.Run(cmd)
				fmt.Fprintf(&got, "$ %s\n%s", cmd, out)
				if err != nil {
					fmt.Fprintf(&got, "error: %v\n", err)
				}
			}
			for _, w := range []struct {
				who string
				pid int
			}{{"app", pid}, {"session", self}} {
				status, err := sess.Run(fmt.Sprintf("cat /proc/%d/status", w.pid))
				if err != nil {
					t.Fatal(err)
				}
				for _, line := range strings.Split(status, "\n") {
					if strings.HasPrefix(line, "CapEff:") {
						fmt.Fprintf(&got, "%s %s\n", w.who, line)
					}
				}
			}
			fmt.Fprintf(&got, "session profile=%s CapEff=%016x\n", sess.Proc.Profile, uint32(sess.Proc.Caps))
			sess.Close()
		}
	}

	const golden = "testdata/attach_transcript.golden"
	if *updateTranscript {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("attach transcript differs from %s:\n%s", golden, got.String())
	}
}
