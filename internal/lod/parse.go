package lod

import (
	"fmt"
	"strconv"
	"strings"

	"graingraph/internal/profile"
)

// ParseWindow parses the "root=R.3,depth=2,top=8" window spec of
// grainview's -window flag into WindowOptions. Every key is optional and
// order-free; Window supplies the defaults for whatever is missing.
func ParseWindow(s string) (WindowOptions, error) {
	var o WindowOptions
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return o, fmt.Errorf("window: %q is not key=value (want root=..,depth=..,top=..)", part)
		}
		if err := o.Set(k, v); err != nil {
			return o, err
		}
	}
	return o, nil
}

// Set assigns one window key (root, depth or top) from its text: the key
// grammar ParseWindow and grainserved's window parameters share.
func (o *WindowOptions) Set(key, value string) error {
	switch key {
	case "root":
		o.Root = profile.GrainID(value)
	case "depth", "top":
		n, err := strconv.Atoi(value)
		if err != nil {
			return fmt.Errorf("window %s %q: not a number", key, value)
		}
		if key == "depth" {
			o.Depth = n
		} else {
			o.Top = n
		}
	default:
		return fmt.Errorf("unknown window key %q (want root, depth, top)", key)
	}
	return nil
}
