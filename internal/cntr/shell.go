package cntr

import (
	"bufio"
	"fmt"
	"sort"
	"strings"

	"cntr/internal/vfs"
)

// Shell is the interactive shell Cntr exposes inside the nested
// namespace (step #4). It is a small POSIX-flavoured command interpreter
// whose file operations all go through the session's chrooted,
// mount-aware client — so `ls /usr/bin` lists the tools forwarded via
// FUSE while `ls /var/lib/cntr` lists the application container's files.
type Shell struct {
	sess *Session
	cwd  string
}

// NewShell builds a shell rooted at the nested namespace root.
func NewShell(sess *Session) *Shell {
	return &Shell{sess: sess, cwd: "/"}
}

// Serve runs a read-eval-print loop over an io stream (the pty slave).
func (sh *Shell) Serve(rw interface {
	Read([]byte) (int, error)
	Write([]byte) (int, error)
}) {
	scanner := bufio.NewScanner(readerFunc(rw.Read))
	fmt.Fprintf(writerFunc(rw.Write), "[cntr] attached to %s\n$ ", sh.sess.Context.Engine)
	for scanner.Scan() {
		line := scanner.Text()
		if strings.TrimSpace(line) == "exit" {
			fmt.Fprintf(writerFunc(rw.Write), "exit\n")
			return
		}
		out, err := sh.Run(line)
		if err != nil {
			fmt.Fprintf(writerFunc(rw.Write), "%s: %v\n$ ", firstWord(line), err)
			continue
		}
		if out != "" && !strings.HasSuffix(out, "\n") {
			out += "\n"
		}
		fmt.Fprintf(writerFunc(rw.Write), "%s$ ", out)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func firstWord(line string) string {
	fs := strings.Fields(line)
	if len(fs) == 0 {
		return ""
	}
	return fs[0]
}

// abs resolves an argument against the shell working directory.
func (sh *Shell) abs(path string) string {
	if strings.HasPrefix(path, "/") {
		return path
	}
	if sh.cwd == "/" {
		return "/" + path
	}
	return sh.cwd + "/" + path
}

// Run executes one command line and returns its output.
func (sh *Shell) Run(line string) (string, error) {
	// Handle `... > file` redirection.
	var redirect string
	if i := strings.LastIndex(line, ">"); i >= 0 {
		redirect = strings.TrimSpace(line[i+1:])
		line = strings.TrimSpace(line[:i])
	}
	args := strings.Fields(line)
	if len(args) == 0 {
		return "", nil
	}
	out, err := sh.dispatch(args)
	if err != nil {
		return "", err
	}
	if redirect != "" {
		if werr := sh.sess.Client.WriteFile(sh.abs(redirect), []byte(out), 0o644); werr != nil {
			return "", werr
		}
		return "", nil
	}
	return out, nil
}

func (sh *Shell) dispatch(args []string) (string, error) {
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "ls":
		return sh.ls(rest)
	case "cat":
		return sh.cat(rest)
	case "echo":
		return strings.Join(rest, " ") + "\n", nil
	case "cd":
		return sh.cd(rest)
	case "pwd":
		return sh.cwd + "\n", nil
	case "ps":
		return sh.ps()
	case "mount":
		return sh.mount()
	case "which":
		return sh.which(rest)
	case "hostname":
		return sh.sess.Nested.Hostname + "\n", nil
	case "env":
		return strings.Join(sh.sess.Proc.Env, "\n") + "\n", nil
	case "id":
		return fmt.Sprintf("uid=%d gid=%d\n", sh.sess.Proc.UID, sh.sess.Proc.GID), nil
	case "stat":
		return sh.stat(rest)
	case "mkdir":
		return sh.mkdir(rest)
	case "rm":
		return sh.rm(rest)
	case "cp":
		return sh.cp(rest)
	case "help":
		return "builtins: ls cat echo cd pwd ps mount which hostname env id stat mkdir rm cp exec help exit\n", nil
	default:
		// Not a builtin: resolve it like execvp would and "run" it —
		// loading the binary exercises the CntrFS read path exactly as
		// exec(2) paging the file in would.
		return sh.exec(cmd, rest)
	}
}

func (sh *Shell) ls(args []string) (string, error) {
	target := sh.cwd
	if len(args) > 0 {
		target = sh.abs(args[0])
	}
	attr, err := sh.sess.Client.Stat(target)
	if err != nil {
		return "", err
	}
	if attr.Type != vfs.TypeDirectory {
		return target + "\n", nil
	}
	ents, err := sh.sess.Client.ReadDir(target)
	if err != nil {
		return "", err
	}
	// In name order, as coreutils ls prints: a listing comes in the
	// filesystem's cookie order.
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	var b strings.Builder
	for _, e := range ents {
		suffix := ""
		if e.Type == vfs.TypeDirectory {
			suffix = "/"
		}
		fmt.Fprintf(&b, "%s%s\n", e.Name, suffix)
	}
	return b.String(), nil
}

func (sh *Shell) cat(args []string) (string, error) {
	if len(args) == 0 {
		return "", vfs.EINVAL
	}
	var b strings.Builder
	for _, a := range args {
		data, err := sh.sess.Client.ReadFile(sh.abs(a))
		if err != nil {
			return "", err
		}
		b.Write(data)
	}
	return b.String(), nil
}

func (sh *Shell) cd(args []string) (string, error) {
	target := "/"
	if len(args) > 0 {
		target = sh.abs(args[0])
	}
	attr, err := sh.sess.Client.Stat(target)
	if err != nil {
		return "", err
	}
	if attr.Type != vfs.TypeDirectory {
		return "", vfs.ENOTDIR
	}
	sh.cwd = target
	return "", nil
}

// ps reads the bind-mounted /proc snapshot: the tools see the same
// process view as the application.
func (sh *Shell) ps() (string, error) {
	ents, err := sh.sess.Client.ReadDir("/proc")
	if err != nil {
		return "", err
	}
	var rows []string
	for _, e := range ents {
		if e.Type != vfs.TypeDirectory {
			continue
		}
		data, err := sh.sess.Client.ReadFile("/proc/" + e.Name + "/cmdline")
		if err != nil {
			continue
		}
		cmd := strings.ReplaceAll(string(data), "\x00", " ")
		rows = append(rows, fmt.Sprintf("%6s  %s", e.Name, cmd))
	}
	sort.Strings(rows)
	return "   PID  CMD\n" + strings.Join(rows, "\n") + "\n", nil
}

func (sh *Shell) mount() (string, error) {
	var b strings.Builder
	for _, m := range sh.sess.Nested.Mount.Mounts() {
		opt := "rw"
		if m.ReadOnly {
			opt = "ro"
		}
		fmt.Fprintf(&b, "none on %s type vfs (%s)\n", m.Point, opt)
	}
	return b.String(), nil
}

// which searches PATH inside the nested namespace.
func (sh *Shell) which(args []string) (string, error) {
	if len(args) == 0 {
		return "", vfs.EINVAL
	}
	path, err := sh.resolveTool(args[0])
	if err != nil {
		return "", err
	}
	return path + "\n", nil
}

func (sh *Shell) resolveTool(name string) (string, error) {
	if strings.Contains(name, "/") {
		abs := sh.abs(name)
		attr, err := sh.sess.Client.Stat(abs)
		if err != nil {
			return "", err
		}
		if attr.Mode&0o111 == 0 {
			return "", vfs.EACCES
		}
		return abs, nil
	}
	pathVar, _ := sh.sess.Getenv("PATH")
	for _, dir := range strings.Split(pathVar, ":") {
		if dir == "" {
			continue
		}
		candidate := dir + "/" + name
		attr, err := sh.sess.Client.Stat(candidate)
		if err != nil {
			continue
		}
		if attr.Type == vfs.TypeRegular && attr.Mode&0o111 != 0 {
			return candidate, nil
		}
	}
	return "", vfs.ENOENT
}

// exec resolves a tool on PATH and loads it through the filesystem —
// the binary bytes stream from the fat container (or host) via CntrFS.
func (sh *Shell) exec(name string, args []string) (string, error) {
	path, err := sh.resolveTool(name)
	if err != nil {
		return "", err
	}
	data, err := sh.sess.Client.ReadFile(path)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("executed %s (%d bytes) args=%v\n", path, len(data), args), nil
}

func (sh *Shell) stat(args []string) (string, error) {
	if len(args) == 0 {
		return "", vfs.EINVAL
	}
	attr, err := sh.sess.Client.Lstat(sh.abs(args[0]))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s: %s mode=%o size=%d uid=%d gid=%d nlink=%d\n",
		args[0], attr.Type, attr.Mode, attr.Size, attr.UID, attr.GID, attr.Nlink), nil
}

func (sh *Shell) mkdir(args []string) (string, error) {
	if len(args) == 0 {
		return "", vfs.EINVAL
	}
	return "", sh.sess.Client.MkdirAll(sh.abs(args[0]), 0o755)
}

func (sh *Shell) rm(args []string) (string, error) {
	if len(args) == 0 {
		return "", vfs.EINVAL
	}
	recursive := false
	paths := args
	if args[0] == "-r" {
		recursive = true
		paths = args[1:]
	}
	for _, p := range paths {
		var err error
		if recursive {
			err = sh.sess.Client.RemoveAll(sh.abs(p))
		} else {
			err = sh.sess.Client.Remove(sh.abs(p))
		}
		if err != nil {
			return "", err
		}
	}
	return "", nil
}

// cp copies a file — e.g. pulling a tool's config from the fat side into
// the application container, or vice versa.
func (sh *Shell) cp(args []string) (string, error) {
	if len(args) != 2 {
		return "", vfs.EINVAL
	}
	data, err := sh.sess.Client.ReadFile(sh.abs(args[0]))
	if err != nil {
		return "", err
	}
	return "", sh.sess.Client.WriteFile(sh.abs(args[1]), data, 0o644)
}
