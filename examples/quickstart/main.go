// Quickstart: boot a host, start a slim container and a fat tools
// container, attach with Cntr and run tools inside the application's
// sandbox — the paper's Figure 1 workflow end to end.
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

	// The slim image: just the application and its config.
	appImg, err := container.BuildImage("webapp", "v1", container.ImageConfig{
		Cmd: []string{"/usr/sbin/mysqld"},
		Env: []string{"MYSQL_DATA=/var/lib/mysql", "PATH=/usr/sbin"},
	}, container.LayerSpec{ID: "app", Files: []container.FileSpec{
		{Path: "/usr/sbin/mysqld", Size: 8192, Executable: true},
		{Path: "/etc/my.cnf", Content: []byte("[mysqld]\ndatadir=/var/lib/mysql\n")},
		{Path: "/etc/passwd", Content: []byte("mysql:x:999:999::/:/bin/false\n")},
		{Path: "/etc/hostname", Content: []byte("db-1\n")},
	}})
	if err != nil {
		return err
	}
	// The fat image: every tool you wish you had in production.
	toolsImg, err := container.BuildImage("debug-tools", "v1", container.ImageConfig{
		Env: []string{"PATH=/usr/bin:/bin"},
	}, container.LayerSpec{ID: "tools", Files: []container.FileSpec{
		{Path: "/usr/bin/gdb", Size: 9000, Executable: true},
		{Path: "/usr/bin/strace", Size: 7000, Executable: true},
		{Path: "/bin/sh", Size: 1000, Executable: true},
	}})
	if err != nil {
		return err
	}

	// In a fixed order, so the pids ps lists are the same every run.
	for _, ct := range []struct {
		name string
		img  *container.Image
	}{{"db", appImg}, {"tools", toolsImg}} {
		c, err := h.Runtime.Create(ct.name, ct.img, container.CreateOpts{Engine: "docker"})
		if err != nil {
			return err
		}
		if err := h.Runtime.Start(c); err != nil {
			return err
		}
	}

	// cntr attach db --fat tools
	sess, err := cntr.Attach(h, cntr.Options{Container: "db", Fat: "tools"})
	if err != nil {
		return err
	}
	defer sess.Close()

	for _, cmd := range []string{
		"hostname",
		"ls /usr/bin",                       // tools, served via CntrFS
		"cat /var/lib/cntr/etc/my.cnf",      // the app's own filesystem
		"ps",                                // the app's processes
		"gdb /var/lib/cntr/usr/sbin/mysqld", // debug the app binary
	} {
		out, err := sess.Run(cmd)
		if err != nil {
			return fmt.Errorf("%s: %v", cmd, err)
		}
		fmt.Fprintf(w, "$ %s\n%s\n", cmd, out)
	}
	return nil
}
