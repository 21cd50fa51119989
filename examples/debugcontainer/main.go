// Debug-container example — the paper's first use case: one debugging
// container serving many application containers in production. The
// session inherits the application's sandbox (cgroup, capabilities, MAC
// profile), edits a config in place and validates it, without the app
// image containing a single tool.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"cntr/internal/cntr"
	"cntr/internal/container"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	h := cntr.NewHost()
	tools, err := container.BuildImage("debugger", "v1", container.ImageConfig{
		Env: []string{"PATH=/usr/bin:/bin", "EDITOR=vim"},
	}, container.LayerSpec{ID: "dbg", Files: []container.FileSpec{
		{Path: "/usr/bin/vim", Size: 3000, Executable: true},
		{Path: "/usr/bin/tcpdump", Size: 4000, Executable: true},
		{Path: "/bin/sh", Size: 900, Executable: true},
	}})
	if err != nil {
		return err
	}
	dbg, err := h.Runtime.Create("debugger", tools, container.CreateOpts{Engine: "docker"})
	if err != nil {
		return err
	}
	if err := h.Runtime.Start(dbg); err != nil {
		return err
	}

	// A fleet of slim app containers, each served by the one debugger.
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("svc-%d", i)
		img, err := container.BuildImage(name, "v1", container.ImageConfig{
			Cmd: []string{"/srv/app"},
			Env: []string{"PATH=/srv"},
		}, container.LayerSpec{ID: name, Files: []container.FileSpec{
			{Path: "/srv/app", Size: 2048, Executable: true},
			{Path: "/srv/app.conf", Content: []byte("threads=4\n")},
		}})
		if err != nil {
			return err
		}
		c, err := h.Runtime.Create(name, img, container.CreateOpts{Engine: "docker"})
		if err != nil {
			return err
		}
		if err := h.Runtime.Start(c); err != nil {
			return err
		}
		sess, err := cntr.Attach(h, cntr.Options{Container: name, Fat: "debugger"})
		if err != nil {
			return err
		}
		// Workflow from §7: edit configuration in place, reload, verify.
		if _, err := sess.Run("echo threads=8 > /var/lib/cntr/srv/app.conf"); err != nil {
			return err
		}
		out, err := sess.Run("cat /var/lib/cntr/srv/app.conf")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "[%s] new config: %s", name, out)
		out, err = sess.Run("tcpdump -i eth0")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "[%s] %s", name, out)
		sess.Close()
	}
	_, err = fmt.Fprintln(w, "one debug image served three production containers")
	return err
}
